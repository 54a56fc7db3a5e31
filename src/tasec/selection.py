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
"""

from enum import Enum

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
# each stated once as a vectorized kernel that link_laws evaluates. Each
# kernel's first step makes one array (`_own`), and the rest run in it;
# x / -beta is -x / beta to the bit.
# ----------------------------------------------------------------------------

def _own(y):
    """A ufunc's result as an array: a numpy scalar becomes a 0-d array."""
    return y if type(y) is np.ndarray else np.array(y)


def _cdf_exp(x, beta):
    y = _own(np.divide(x, -beta))
    return np.negative(np.expm1(y, out=y), out=y)


def _sf_exp(x, beta):
    y = _own(np.divide(x, -beta))
    return np.exp(y, out=y)


def _sf_max(x, beta, m):
    # 1 - (1 - exp(-x/beta))^m without cancellation in the deep tail.
    y = _own(np.divide(x, -beta))
    with np.errstate(divide="ignore"):  # log1p(-1) at x = 0
        np.log1p(np.negative(np.exp(y, out=y), out=y), out=y)
    y *= m
    return np.negative(np.expm1(y, out=y), out=y)


def _cdf_min(x, beta, m):
    y = _own(np.multiply(x, -(m / beta)))
    return np.negative(np.expm1(y, out=y), out=y)


def link_laws(scheme: TasScheme, scenario: Scenario):
    """Vectorized (F_E, 1 - F_B) of the selected antenna's two SNRs, for the
    schemes whose selection keeps the links independent (not otas), and
    their scale: the larger of the means of the exponentials behind them,
    the x around which the slower law rises or falls."""
    scheme = TasScheme(scheme)
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas
    if scheme is TasScheme.BTAS:
        return (lambda x: _cdf_exp(x, ge)), (lambda x: _sf_max(x, gb, m)), max(ge, gb)
    if scheme is TasScheme.ETAS:
        return (lambda x: _cdf_min(x, ge, m)), (lambda x: _sf_exp(x, gb)), max(ge / m, gb)
    if scheme is TasScheme.RANDOM:
        return (lambda x: _cdf_exp(x, ge)), (lambda x: _sf_exp(x, gb)), max(ge, gb)
    raise UnsupportedSchemeError(
        f"no product-form CDFs for scheme {scheme.value!r}: the selected "
        "antenna's SNRs are dependent")
