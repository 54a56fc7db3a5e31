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
and evaluates it by Monte Carlo (ROUTES; `asc` runs a scheme's routes). MC
runs are chunked onto derived substreams so the estimate is a pure function
of (scenario, scheme, trials, seed, stream) no matter how many workers execute
the chunks. One kernel, `_capacities`, gives each realization's capacity to
MC and the self-checks. O-TAS needs no selected index: its capacity is
[log2 max_i R_i]^+ over the per-antenna SNR ratios R_i (`snr_ratios`).
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .channel import RngStream, Scenario, draw_gain_blocks, require_int
from .errors import UnsupportedSchemeError
from .expint import delta_e
from .quadrature import integrate_half_line
from .selection import TasScheme, link_laws, link_scale, select_indices, snr_ratios

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


def asc(scenario: Scenario, scheme: TasScheme, method: Method | None = None, *,
        trials: int | None = None, rng: RngStream | None = None,
        threads: int = 1) -> AscEstimate:
    """ASC of `scheme` by `method`, or by the scheme's first route in ROUTES;
    a pair that ROUTES lacks raises UnsupportedSchemeError. Monte Carlo takes
    `trials`, `rng` and `threads` as mc_asc does."""
    scheme = TasScheme(scheme)
    method = ROUTES[scheme][0] if method is None else Method(method)
    if method not in ROUTES[scheme]:
        raise UnsupportedSchemeError(f"no {method.value} route for {scheme.value}")
    if method is Method.MC:
        return mc_asc(scenario, scheme, trials, rng, threads=threads)
    if method is Method.QUAD:
        return asc_quadrature(scenario, scheme)
    if scheme is TasScheme.BTAS:
        return asc_btas_closed(scenario)
    return asc_etas_closed(scenario)


def secrecy_capacity(gamma_b, gamma_e):
    """[log2(1+gamma_b) - log2(1+gamma_e)]^+ as one log of the SNR ratio,
    elementwise over arrays of instantaneous SNRs."""
    return _capacity_of_ratio((1.0 + gamma_b) / (1.0 + gamma_e))


def _capacity_of_ratio(ratio):
    """[log2 ratio]^+ of SNR ratios (1+gamma_b)/(1+gamma_e)."""
    return np.maximum(0.0, np.log2(ratio))


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


def _capacities(scenario: Scenario, scheme: TasScheme, bob: np.ndarray,
                eve: np.ndarray, stream: RngStream) -> np.ndarray:
    """Each realization's secrecy capacity at the antenna `scheme` selects,
    from (count, M) gain blocks; random consumes `stream`. O-TAS takes each
    row's largest SNR ratio in place, overwriting the blocks, as a running
    maximum over the M columns (an axis-1 reduce is slow on rows this short).
    That is the ratio at the argmax, with the same float operations, and a
    NaN ratio wins both. The other schemes select indices, then take the
    ratio of the gathered gains, and leave the blocks untouched.
    """
    if scheme is TasScheme.OTAS:
        ratios = snr_ratios(scenario, bob, eve)
        ratio = ratios[:, 0].copy()
        for column in ratios.T[1:]:
            np.maximum(ratio, column, out=ratio)
    else:
        idx = select_indices(scheme, scenario, bob, eve, rng=stream)
        rows = np.arange(idx.size)
        ratio = snr_ratios(scenario, bob[rows, idx], eve[rows, idx])
    return _capacity_of_ratio(ratio)


def _chunk_moments(scenario: Scenario, scheme: TasScheme, rng: RngStream,
                   index: int, size: int) -> tuple[int, float, float]:
    """Secrecy-capacity sample moments (n, mean, sum of squared deviations)
    for one chunk, drawn from the substream derived for `index`. A gamma0 g
    that overflows a double shows as an inf or NaN mean, which mc_asc
    reports; no floating-point warning is raised."""
    stream = rng.substream(index)
    bob, eve = draw_gain_blocks(scenario, stream, size)
    with np.errstate(all="ignore"):
        cs = _capacities(scenario, scheme, bob, eve, stream)
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
    depend on `threads`. ValueError is raised at the top of the dB range,
    where a drawn gamma0*g overflows a double and the mean is not finite.
    """
    trials = require_int(trials, "trials", 2)
    threads = require_int(threads, "threads", 1)
    if not isinstance(rng, RngStream):
        raise ValueError(f"Monte Carlo needs an RngStream as rng, got {rng!r}")
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
    if not math.isfinite(mean):
        raise ValueError(
            f"Monte Carlo: gamma0*g overflows a double at gamma_b0="
            f"{scenario.gamma_b0:.6g}, gamma_e0={scenario.gamma_e0:.6g}; use "
            "method closed or quad where the scheme has them")
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return AscEstimate(value=mean, method=Method.MC, trials=trials,
                       std_error=std_error)


# ----------------------------------------------------------------------------
# Quadrature of the general ASC integral
# ----------------------------------------------------------------------------

def asc_quadrature(scenario: Scenario, scheme: TasScheme) -> AscEstimate:
    """ASC by trapezoid quadrature in ln x of the product-form integral over
    the scheme's `link_laws`, with its right end guessed from the laws'
    `link_scale`; otas raises UnsupportedSchemeError. The integral meets
    an absolute tolerance of 1e-10 across the dB range, save its top: above
    a reference SNR of about 3,067 dB the tail does not vanish below the
    largest double, and ConvergenceError is raised."""
    f_eve, sf_bob = link_laws(scheme, scenario)

    def integrand(x):
        return f_eve(x) * sf_bob(x) / (1.0 + x)

    value = integrate_half_line(integrand,
                                scale=link_scale(scheme, scenario)) / _LN2
    return AscEstimate(value=max(0.0, value), method=Method.QUAD)


# ----------------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------------

def asc_btas_closed(scenario: Scenario) -> AscEstimate:
    """ASC of legitimate-based selection by the alternating binomial sum over
    delta_e terms, or by asc_quadrature (method quad) where the sum's error
    bound 8 eps S exceeds BTAS_CLOSED_TOL or S overflows. Quadrature raises
    ConvergenceError only where its tail passes the largest double, above a
    gamma_b0 of about 3,067 dB.

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
