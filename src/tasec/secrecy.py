"""Instantaneous and average secrecy capacity, by three routes.

For the sub-optimal schemes the average secrecy capacity (ASC) is available
in closed form through the scaled exponential-integral difference

    asc_btas = (1/ln 2) sum_{k=1..M} C(M,k) (-1)^(k+1)
               delta_e(k/gamma_b0, 1/gamma_e0 + k/gamma_b0)
    asc_etas = (1/ln 2) delta_e(1/gamma_b0, M/gamma_e0 + 1/gamma_b0)

and, independently, through numerical quadrature of

    asc = (1/ln 2) int_0^inf F_E(x) [1 - F_B(x)] / (1 + x) dx

with the link CDFs of `selection.link_laws`. The optimal scheme couples the
two links; this package has no closed form or product-form quadrature for it
and evaluates it by Monte Carlo (ROUTES). MC runs are chunked onto derived
substreams so the estimate is a pure function of (scenario, scheme, trials,
seed, stream) no matter how many workers execute the chunks.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .channel import RngStream, Scenario, draw_gain_blocks
from .expint import delta_e
from .quadrature import integrate_half_line
from .selection import TasScheme, link_laws, link_scales, select_indices

_LN2 = math.log(2.0)

# Trials per substream chunk; fixed so that results never depend on how the
# chunks are scheduled across workers. A (chunk, M) float64 gain block stays
# in cache, and short runs still split into several chunks for the workers.
MC_CHUNK_SIZE = 16_384

# Largest rounding-error bound a B-TAS closed-form value may carry; past it
# the value comes from quadrature (see asc_btas_closed).
BTAS_CLOSED_TOL = 1e-9


class Method(str, Enum):
    CLOSED = "closed"
    QUAD = "quad"
    MC = "mc"


# The routes each scheme offers: only btas/etas have closed forms, and otas
# couples the two links, so it has no product-form quadrature either.
ROUTES = {
    TasScheme.OTAS: (Method.MC,),
    TasScheme.BTAS: (Method.CLOSED, Method.QUAD, Method.MC),
    TasScheme.ETAS: (Method.CLOSED, Method.QUAD, Method.MC),
    TasScheme.RANDOM: (Method.QUAD, Method.MC),
}


@dataclass(frozen=True)
class AscEstimate:
    """An ASC value in bits/s/Hz; MC estimates also carry their trial count
    and standard error."""

    value: float
    method: Method
    trials: int | None = None
    std_error: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"ASC must be finite and >= 0, got {self.value!r}")
        if self.method is Method.MC:
            if self.trials is None or self.trials < 1:
                raise ValueError("MC estimates need trials >= 1")
            if self.std_error is None or not (self.std_error >= 0.0):
                raise ValueError("MC estimates need std_error >= 0")
        elif self.trials is not None or self.std_error is not None:
            raise ValueError(f"{self.method.value} estimates carry no trials/std_error")


def secrecy_capacity(gamma_b, gamma_e):
    """[log2(1+gamma_b) - log2(1+gamma_e)]^+ as one log of the SNR ratio,
    elementwise over arrays of instantaneous SNRs."""
    return np.maximum(0.0, np.log2((1.0 + gamma_b) / (1.0 + gamma_e)))


# ----------------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------------

def _chunk_layout(trials: int) -> list[tuple[int, int]]:
    """(chunk_index, chunk_size) pairs; full chunks plus a final partial one."""
    full, rest = divmod(trials, MC_CHUNK_SIZE)
    layout = [(i, MC_CHUNK_SIZE) for i in range(full)]
    if rest:
        layout.append((full, rest))
    return layout


def _chunk_moments(scenario: Scenario, scheme: TasScheme, rng: RngStream,
                   index: int, size: int) -> tuple[int, float, float]:
    """Secrecy-capacity sample moments (n, mean, sum of squared deviations)
    for one chunk, drawn from the substream derived for `index`."""
    stream = rng.substream(index)
    bob, eve = draw_gain_blocks(scenario, stream, size)
    idx = select_indices(scheme, scenario, bob, eve, rng=stream)
    rows = np.arange(size)
    gamma_b = scenario.gamma_b0 * bob[rows, idx]
    gamma_e = scenario.gamma_e0 * eve[rows, idx]
    cs = secrecy_capacity(gamma_b, gamma_e)
    mean = float(cs.mean())
    m2 = float(np.sum((cs - mean) ** 2))
    return size, mean, m2


def _merge_moments(a: tuple[int, float, float],
                   b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Chan's parallel update of (n, mean, m2); exact merge of two chunks."""
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return n, mean, m2


def mc_asc(scenario: Scenario, scheme: TasScheme, trials: int,
           rng: RngStream, threads: int = 1) -> AscEstimate:
    """Monte Carlo ASC: average the clamped secrecy capacity at the selected
    antenna over `trials` independent fading realizations.

    Chunks of MC_CHUNK_SIZE trials run on substreams derived from the chunk
    index, and their moments merge in chunk order, so the estimate does not
    depend on `threads`.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 2:
        raise ValueError(f"trials must be an integer >= 2, got {trials!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    scheme = TasScheme(scheme)

    layout = _chunk_layout(trials)

    def job(entry):
        index, size = entry
        return _chunk_moments(scenario, scheme, rng, index, size)

    if threads > 1 and len(layout) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, layout))
    else:
        results = [job(entry) for entry in layout]

    n, mean, m2 = reduce(_merge_moments, results)  # in chunk order
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return AscEstimate(value=mean, method=Method.MC, trials=trials,
                       std_error=std_error)


def asc_otas_mc(scenario: Scenario, trials: int, rng: RngStream,
                threads: int = 1) -> AscEstimate:
    """ASC of the optimal scheme by Monte Carlo. This package has no closed
    form or product-form quadrature for it: the selected antenna's two SNRs
    are dependent, which breaks the product form both of them rest on."""
    return mc_asc(scenario, TasScheme.OTAS, trials, rng, threads=threads)


# ----------------------------------------------------------------------------
# Quadrature of the general ASC integral
# ----------------------------------------------------------------------------

def asc_quadrature(scenario: Scenario, scheme: TasScheme) -> AscEstimate:
    """ASC by adaptive quadrature of the product-form integral over the
    scheme's `link_laws`, seeded with edges at the laws' `link_scales`;
    otas raises UnsupportedSchemeError. A tail that spans too many decades
    for the interval cap (a legitimate reference SNR above about 1,260 dB)
    raises ConvergenceError."""
    f_eve, sf_bob = link_laws(scheme, scenario)

    def integrand(x):
        return f_eve(x) * sf_bob(x) / (1.0 + x)

    value = integrate_half_line(integrand,
                                scales=link_scales(scheme, scenario)) / _LN2
    return AscEstimate(value=max(0.0, value), method=Method.QUAD)


# ----------------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------------

def asc_btas_closed(scenario: Scenario) -> AscEstimate:
    """ASC of legitimate-based selection by the alternating binomial sum over
    delta_e terms, or by asc_quadrature (method quad) where the sum's error
    bound 8 eps S exceeds BTAS_CLOSED_TOL or S overflows. Quadrature raises
    ConvergenceError above a gamma_b0 of about 1,260 dB.

    S = sum_k C(M,k) (ln(1 + 1/a_k) + ln(1 + 1/b_k)) / ln 2 over the term
    arguments, and f(x) = exp(x) E1(x) < ln(1 + 1/x) (A&S 5.1.20). Each f is
    computed within 3.2 eps (see expint). Rounding its argument adds 1.5 eps
    of f, as |x f'(x)| = 1 - x f(x) < f(x). The subtraction in delta_e, the
    rounded C(M,k) and their product add 1.5 eps of C(M,k) (f(a_k) + f(b_k)).
    fsum and the division by ln 2 add 1.5 eps of the result, which is at
    most S. That is 7.7 eps S in all. At (10, 10) dB the sum is kept up to
    M = 18.
    """
    m = scenario.num_antennas
    inv_gb = 1.0 / scenario.gamma_b0
    inv_ge = 1.0 / scenario.gamma_e0
    args = [(math.comb(m, k), k * inv_gb, inv_ge + k * inv_gb)
            for k in range(1, m + 1)]
    try:
        scale = math.fsum(binom * (math.log1p(1.0 / a) + math.log1p(1.0 / b))
                          for binom, a, b in args) / _LN2
    except OverflowError:  # C(M,k) or S beyond a double
        scale = math.inf
    if 8.0 * sys.float_info.epsilon * scale > BTAS_CLOSED_TOL:
        return asc_quadrature(scenario, TasScheme.BTAS)
    terms = []
    for k, (binom, a, b) in enumerate(args, start=1):
        terms.append((binom if k % 2 else -binom) * delta_e(a, b))
    # Clamp: for near-degenerate SNRs the sum of correctly-rounded terms can
    # land an ulp below zero.
    return AscEstimate(value=max(0.0, math.fsum(terms) / _LN2), method=Method.CLOSED)


def asc_etas_closed(scenario: Scenario) -> AscEstimate:
    """Closed-form ASC of eavesdropper-based selection.

    Same shape as the single-antenna expression with the eavesdropper's
    average SNR cut by the antenna count M.
    """
    inv_gb = 1.0 / scenario.gamma_b0
    value = delta_e(inv_gb, scenario.num_antennas / scenario.gamma_e0 + inv_gb) / _LN2
    return AscEstimate(value=max(0.0, value), method=Method.CLOSED)
