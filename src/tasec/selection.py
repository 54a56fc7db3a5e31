"""Antenna-selection criteria and the link laws they induce.

Four criteria are supported:

  otas    the largest SNR ratio (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E)
          over the antennas; needs both links' CSI and maximizes the
          instantaneous secrecy capacity pointwise. Its one kernel,
          `secrecy._ratio_capacities`, forms the ratios and takes their row
          max, with no index.
  btas    argmax of the legitimate gain (classical criterion).
  etas    argmin of the eavesdropper gain.
  random  uniform choice, the no-selection-gain baseline.

Ties break toward the lowest index; under continuous fading that is a
probability-zero event that only matters for crafted inputs.

The link-law kernels of F and 1 - F^M return -F and -(1 - F^M). `link_laws`
negates them and enters np.errstate for the log1p(-1) of btas at x = 0; in
`asc_integrand`, F_E (1 - F_B) / (1 + x), the negations cancel or move into
the divisor, which is exact, and integrate_half_line owns the errstate.
"""

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
# each stated once as a vectorized kernel of (beta[, m], x), x an array of at
# least one dimension. A kernel's first step makes one array, and the rest
# run in it; x / -beta is -x / beta to the bit.
# ----------------------------------------------------------------------------

def _neg_cdf_exp(beta, x):
    y = np.divide(x, -beta)
    return np.expm1(y, out=y)


def _sf_exp(beta, x):
    y = np.divide(x, -beta)
    return np.exp(y, out=y)


def _neg_sf_max(beta, m, x):
    # -(1 - (1 - exp(-x/beta))^m) without cancellation in the deep tail.
    y = np.divide(x, -beta)
    np.log1p(np.negative(np.exp(y, out=y), out=y), out=y)
    y *= m
    return np.expm1(y, out=y)


def _neg_cdf_min(beta, m, x):
    y = np.multiply(x, -(m / beta))
    return np.expm1(y, out=y)


def _kernels(scheme: TasScheme, scenario: Scenario):
    """-F_E; 1 - F_B times its sign; that sign, -1 for btas; the scale."""
    scheme = scheme if isinstance(scheme, TasScheme) else TasScheme(scheme)
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas
    if scheme is TasScheme.BTAS:
        return partial(_neg_cdf_exp, ge), partial(_neg_sf_max, gb, m), -1.0, max(ge, gb)
    if scheme is TasScheme.ETAS:
        return partial(_neg_cdf_min, ge, m), partial(_sf_exp, gb), 1.0, max(ge / m, gb)
    if scheme is TasScheme.RANDOM:
        return partial(_neg_cdf_exp, ge), partial(_sf_exp, gb), 1.0, max(ge, gb)
    raise UnsupportedSchemeError(
        f"no product-form CDFs for scheme {scheme.value!r}: the selected "
        "antenna's SNRs are dependent")


def _law(kernel, sign, x):
    with np.errstate(divide="ignore"):  # log1p(-1) of btas at x = 0
        y = kernel(np.atleast_1d(x))
    return np.multiply(y, sign, out=y).reshape(np.shape(x))


def link_laws(scheme: TasScheme, scenario: Scenario):
    """Vectorized (F_E, 1 - F_B) of the selected antenna's two SNRs, for the
    schemes whose selection keeps the links independent (not otas), and
    their scale: the larger of the means of the exponentials behind them,
    the x around which the slower law rises or falls."""
    neg_f_eve, sf_bob, sign, scale = _kernels(scheme, scenario)
    return partial(_law, neg_f_eve, -1.0), partial(_law, sf_bob, sign), scale


def asc_integrand(scheme: TasScheme, scenario: Scenario):
    """F_E(x) (1 - F_B(x)) / (1 + x) of `link_laws`, whose integral over
    [0, inf) is the scheme's ASC times ln 2, and the laws' scale."""
    neg_f_eve, sf_bob, sign, scale = _kernels(scheme, scenario)
    # -F_E times -(1 - F_B) over 1 + x, or times 1 - F_B over -1 - x
    shift, one = (np.add, 1.0) if sign < 0.0 else (np.subtract, -1.0)

    def integrand(x):
        y, sf = neg_f_eve(x), sf_bob(x)
        y *= sf
        return np.divide(y, shift(one, x, out=sf), out=y)

    return integrand, scale
