"""Antenna-selection criteria and the link laws they induce.

Four criteria are supported:

  otas    the largest SNR ratio (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E),
          from both links' CSI: the largest secrecy capacity, the row max
          of `secrecy._ratio_capacities`, with no index.
  btas    argmax of the legitimate gain (classical criterion).
  etas    argmin of the eavesdropper gain.
  random  uniform choice, the no-selection-gain baseline.

Ties break toward the lowest index; under continuous fading that is a
probability-zero event that only matters for crafted inputs.

The link-law kernels of F and 1 - F^M return -F and -(1 - F^M). `link_laws`
negates them and enters np.errstate for the log1p(-1) of btas at x = 0; in
`asc_integrand`, F_E (1 - F_B) against dx/(1 + x), they cancel for btas and
move onto the integral for the others, which is exact, and the integrand
enters np.errstate only on a grid that reaches past its quiet range.
"""

import math
from enum import Enum
from functools import partial

import numpy as np

from .channel import RngStream, Scenario
from .errors import UnsupportedSchemeError


class TasScheme(str, Enum):
    OTAS = "otas"
    BTAS = "btas"
    ETAS = "etas"
    RANDOM = "random"


def select_indices(scheme: TasScheme, scenario: Scenario,
                   bob_gains: np.ndarray, eve_gains: np.ndarray,
                   rng: RngStream | None = None) -> np.ndarray:
    """Vectorized selection over a (count, M) batch of realizations.

    argmax/argmin return the first extremal index, which is the tie rule.
    The gain arrays are left untouched. The random scheme consumes `rng`
    after the gains were drawn. otas raises UnsupportedSchemeError.
    """
    scheme = TasScheme(scheme)
    if scheme is TasScheme.OTAS:
        raise UnsupportedSchemeError("otas needs no index: its capacity is a row max")
    if scheme is TasScheme.BTAS:
        return np.argmax(bob_gains, axis=1)
    if scheme is TasScheme.ETAS:
        return np.argmin(eve_gains, axis=1)
    if rng is None:  # TasScheme.RANDOM
        raise ValueError("random selection needs an RngStream")
    return rng.generator.integers(0, scenario.num_antennas, size=bob_gains.shape[0])


# ----------------------------------------------------------------------------
# Gain CDFs: single link and the max/min order statistics of M i.i.d. links,
# each stated once as a vectorized kernel of (x, beta[, m]), x an array of at
# least one dimension. A kernel's first step makes one array, and the rest
# run in it; x / -beta is -x / beta to the bit.
# ----------------------------------------------------------------------------

def _neg_cdf_exp(x, beta):
    y = np.divide(x, -beta)
    return np.expm1(y, out=y)


def _sf_exp(x, beta):
    y = np.divide(x, -beta)
    return np.exp(y, out=y)


def _neg_sf_max(x, beta, m):
    # -(1 - (1 - exp(-x/beta))^m) without cancellation in the deep tail.
    y = np.divide(x, -beta)
    np.log1p(np.negative(np.exp(y, out=y), out=y), out=y)
    y *= m
    return np.expm1(y, out=y)


def _neg_cdf_min(x, beta, m):
    y = np.multiply(x, -(m / beta))
    return np.expm1(y, out=y)


# Per scheme, (gamma_b0, gamma_e0, M) -> the kernel and scalars of -F_E and
# of 1 - F_B times a sign; that sign; the two means. Keyed by member, and so
# by name too, as a TasScheme is the str of its value.
_KERNELS = {
    TasScheme.BTAS: lambda gb, ge, m: (
        (_neg_cdf_exp, (ge,)), (_neg_sf_max, (gb, m)), -1.0, (ge, gb)),
    TasScheme.ETAS: lambda gb, ge, m: (
        (_neg_cdf_min, (ge, m)), (_sf_exp, (gb,)), 1.0, (ge / m, gb)),
    TasScheme.RANDOM: lambda gb, ge, m: (
        (_neg_cdf_exp, (ge,)), (_sf_exp, (gb,)), 1.0, (ge, gb)),
}


def _kernels(scheme: TasScheme, scenario: Scenario):
    """(kernel, its scalars) of -F_E and of 1 - F_B times a sign; that sign; the two means."""
    try:
        kernels = _KERNELS[scheme]
    except (KeyError, TypeError):
        scheme = TasScheme(scheme)  # ValueError if `scheme` names no scheme
        raise UnsupportedSchemeError(
            f"no product-form CDFs for scheme {scheme.value!r}: the selected "
            "antenna's SNRs are dependent") from None
    return kernels(scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas)


def _law(kernel, args, sign, x):
    with np.errstate(divide="ignore"):  # log1p(-1) of btas at x = 0
        y = kernel(np.atleast_1d(x), *args)
    return np.multiply(y, sign, out=y).reshape(np.shape(x))


def link_laws(scheme: TasScheme, scenario: Scenario):
    """Vectorized (F_E, 1 - F_B) of the selected antenna's two SNRs, for the
    schemes whose selection keeps the links independent (not otas), and
    their scale: the larger of the means of the exponentials behind them,
    the x around which the slower law rises or falls."""
    neg_f_eve, sf_bob, sign, means = _kernels(scheme, scenario)
    return partial(_law, *neg_f_eve, -1.0), partial(_law, *sf_bob, sign), max(means)


def asc_integrand(scheme: TasScheme, scenario: Scenario):
    """F_E(x) (1 - F_B(x)) of `link_laws` times a sign, that sign and the
    laws' scale: the sign times the integral of the first against dx/(1 + x)
    over [0, inf) (`integrate_half_line`) is the scheme's ASC times ln 2.
    On an ascending grid x > 0 within [low, high] the integrand raises no
    floating-point error but underflow; one past either end runs in
    np.errstate(all="ignore"). Below low = gamma_b0 2^-52 btas takes log1p(-1)
    (past M = 2^1000, M log1p(...) can overflow at any x); above high, 2^1000
    times the smaller mean, x over that mean overflows."""
    (eve, eve_args), (bob, bob_args), sign, (mean_e, mean_b) = _kernels(scheme, scenario)
    low = 0.0
    if bob is _neg_sf_max:
        low = bob_args[0] * 2.0 ** -52 if bob_args[1] < 2.0 ** 1000 else math.inf
    small, large = (mean_e, mean_b) if mean_e < mean_b else (mean_b, mean_e)
    high = small * 2.0 ** 1000

    def integrand(x, quiet=False):  # quiet: called again inside np.errstate
        if not (quiet or low <= x.item(0) and x.item(-1) <= high):
            with np.errstate(all="ignore"):
                return integrand(x, True)
        y = eve(x, *eve_args)
        y *= bob(x, *bob_args)
        return y

    return integrand, -sign, large
