"""Antenna-selection criteria and the link laws they induce.

Four criteria are supported:

  otas    argmax of (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E) per antenna;
          needs both links' CSI and maximizes the instantaneous secrecy
          capacity pointwise.
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
    The random scheme consumes `rng` after the gains were drawn.
    """
    scheme = TasScheme(scheme)
    if scheme is TasScheme.OTAS:
        # The log of the ratio is monotone, so comparing the ratio itself
        # picks the same antenna without transcendental calls.
        ratio = (1.0 + scenario.gamma_b0 * bob_gains) / (1.0 + scenario.gamma_e0 * eve_gains)
        return np.argmax(ratio, axis=1)
    if scheme is TasScheme.BTAS:
        return np.argmax(bob_gains, axis=1)
    if scheme is TasScheme.ETAS:
        return np.argmin(eve_gains, axis=1)
    if rng is None:  # TasScheme.RANDOM
        raise ValueError("random selection needs an RngStream")
    return rng.generator.integers(0, scenario.num_antennas, size=bob_gains.shape[0])


# ----------------------------------------------------------------------------
# Gain CDFs: single link and the max/min order statistics of M i.i.d. links,
# each stated once as a vectorized kernel that link_laws evaluates.
# ----------------------------------------------------------------------------

def _cdf_exp(x, beta):
    return -np.expm1(-x / beta)


def _sf_exp(x, beta):
    return np.exp(-x / beta)


def _sf_max(x, beta, m):
    # 1 - (1 - exp(-x/beta))^m without cancellation in the deep tail.
    with np.errstate(divide="ignore"):
        return -np.expm1(m * np.log1p(-np.exp(-x / beta)))


def _cdf_min(x, beta, m):
    return -np.expm1(-(m / beta) * x)


def link_laws(scheme: TasScheme, scenario: Scenario):
    """Vectorized (F_E, 1 - F_B) of the selected antenna's two SNRs, for the
    schemes whose selection keeps the links independent (not otas)."""
    scheme = TasScheme(scheme)
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas
    if scheme is TasScheme.BTAS:
        return (lambda x: _cdf_exp(x, ge)), (lambda x: _sf_max(x, gb, m))
    if scheme is TasScheme.ETAS:
        return (lambda x: _cdf_min(x, ge, m)), (lambda x: _sf_exp(x, gb))
    if scheme is TasScheme.RANDOM:
        return (lambda x: _cdf_exp(x, ge)), (lambda x: _sf_exp(x, gb))
    raise UnsupportedSchemeError(
        f"no product-form CDFs for scheme {scheme.value!r}: the selected "
        "antenna's SNRs are dependent")


def link_scales(scheme: TasScheme, scenario: Scenario) -> tuple[float, float]:
    """The means of the exponentials behind `link_laws`' (F_E, 1 - F_B):
    the x around which each law rises or falls."""
    eve = scenario.gamma_e0
    if TasScheme(scheme) is TasScheme.ETAS:
        eve /= scenario.num_antennas
    return eve, scenario.gamma_b0
