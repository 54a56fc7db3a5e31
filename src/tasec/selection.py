"""Antenna-selection criteria and the order-statistic CDFs they induce.

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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelRealization, RngStream, Scenario
from .errors import UnsupportedSchemeError


class TasScheme(str, Enum):
    OTAS = "otas"
    BTAS = "btas"
    ETAS = "etas"
    RANDOM = "random"


@dataclass(frozen=True)
class Selection:
    antenna: int
    scheme: TasScheme

    def __post_init__(self):
        if self.antenna < 0:
            raise ValueError(f"antenna index must be >= 0, got {self.antenna!r}")


def select_indices(scheme: TasScheme, scenario: Scenario,
                   bob_gains: np.ndarray, eve_gains: np.ndarray,
                   rng: RngStream | None = None) -> np.ndarray:
    """Vectorized selection over a (count, M) batch of realizations.

    argmax/argmin return the first extremal index, which is the tie rule.
    The random scheme consumes `rng` after the gains were drawn.
    """
    if scheme is TasScheme.OTAS:
        # The log of the ratio is monotone, so comparing the ratio itself
        # picks the same antenna without transcendental calls.
        ratio = (1.0 + scenario.gamma_b0 * bob_gains) / (1.0 + scenario.gamma_e0 * eve_gains)
        return np.argmax(ratio, axis=1)
    if scheme is TasScheme.BTAS:
        return np.argmax(bob_gains, axis=1)
    if scheme is TasScheme.ETAS:
        return np.argmin(eve_gains, axis=1)
    if scheme is TasScheme.RANDOM:
        if rng is None:
            raise ValueError("random selection needs an RngStream")
        return rng.generator.integers(0, scenario.num_antennas, size=bob_gains.shape[0])
    raise ValueError(f"unknown scheme {scheme!r}")


def _check_matching(scenario: Scenario, realization: ChannelRealization) -> None:
    if scenario.num_antennas != realization.num_antennas:
        raise ValueError(
            f"scenario has M={scenario.num_antennas} antennas but the "
            f"realization has {realization.num_antennas}")


def select_otas(scenario: Scenario, realization: ChannelRealization) -> Selection:
    """Secrecy-optimal selection: maximize the per-antenna SNR ratio.

    The argmax is returned even when no antenna beats ratio 1; the capacity
    clamp downstream handles it.
    """
    _check_matching(scenario, realization)
    idx = select_indices(TasScheme.OTAS, scenario, realization.bob_gains[None, :],
                         realization.eve_gains[None, :])
    return Selection(int(idx[0]), TasScheme.OTAS)


def select_btas(realization: ChannelRealization) -> Selection:
    """Legitimate-link selection: antenna with the largest Bob gain."""
    return Selection(int(np.argmax(realization.bob_gains)), TasScheme.BTAS)


def select_etas(realization: ChannelRealization) -> Selection:
    """Eavesdropper-link selection: antenna with the smallest Eve gain."""
    return Selection(int(np.argmin(realization.eve_gains)), TasScheme.ETAS)


def select_random(scenario: Scenario, rng: RngStream) -> Selection:
    """Uniform selection over the M antennas; advances the stream."""
    return Selection(int(rng.generator.integers(0, scenario.num_antennas)),
                     TasScheme.RANDOM)


# ----------------------------------------------------------------------------
# Gain CDFs: single link and the max/min order statistics of M i.i.d. links,
# each stated once as a vectorized kernel that cdf_* and link_laws evaluate.
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


def _check_beta(beta: float) -> None:
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"order m must be an integer >= 1, got {m!r}")


def cdf_exponential(x: float, beta: float) -> float:
    """CDF of an exponential with mean beta: 1 - exp(-x/beta), 0 for x <= 0."""
    _check_beta(beta)
    if x <= 0.0:
        return 0.0
    return float(_cdf_exp(x, beta))


def cdf_max_order(x: float, beta: float, m: int) -> float:
    """CDF of the maximum of m i.i.d. exponentials: F(x)^m."""
    _check_beta(beta)
    _check_order(m)
    return cdf_exponential(x, beta) ** m


def cdf_min_order(x: float, beta: float, m: int) -> float:
    """CDF of the minimum of m i.i.d. exponentials, 1 - (1 - F(x))^m.

    The minimum of m exponentials of mean beta is exponential with mean
    beta/m, which is the numerically stable way to evaluate it.
    """
    _check_beta(beta)
    _check_order(m)
    if x <= 0.0:
        return 0.0
    return float(_cdf_min(x, beta, m))
