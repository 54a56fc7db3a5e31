"""Antenna-selection criteria and the link laws they induce.

Four criteria are supported:

  otas    the largest SNR ratio (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E)
          over the antennas (`snr_ratios`); needs both links' CSI and
          maximizes the instantaneous secrecy capacity pointwise. Its one
          kernel, `secrecy._ratio_capacities`, takes the row max and no index.
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


def fold_gains(gains: np.ndarray, gamma0: float, out: np.ndarray) -> np.ndarray:
    """1 + gamma0 g, a link's SNR term of `snr_ratios`, written to and
    returned as `out`, which may be `gains` itself."""
    np.multiply(gains, gamma0, out=out)
    out += 1.0
    return out


def snr_ratios(scenario: Scenario, bob_gains: np.ndarray, eve_gains: np.ndarray,
               out: tuple[np.ndarray, ...], folded: str | None = None) -> np.ndarray:
    """Per-antenna SNR ratio (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E), whose
    log2 is the instantaneous secrecy capacity before its clamp at 0.

    Computed without temporaries in `out=(bob_out, eve_out)`, arrays of the
    gains' shape, and returned as `out[0]`; the gains are left untouched. A
    side `folded`, "bob" or "eve", already holds 1 + gamma0 g (`fold_gains`)
    and takes no `out` array. A gamma0 g that overflows a double gives an
    inf or NaN ratio, or a ratio of 0.
    """
    tiles = iter(out)
    bob = (bob_gains if folded == "bob"
           else fold_gains(bob_gains, scenario.gamma_b0, next(tiles)))
    eve = (eve_gains if folded == "eve"
           else fold_gains(eve_gains, scenario.gamma_e0, next(tiles)))
    return np.divide(bob, eve, out=out[0])


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


def link_scale(scheme: TasScheme, scenario: Scenario) -> float:
    """The larger of the means of the exponentials behind `link_laws`'
    (F_E, 1 - F_B): the x around which the slower law rises or falls."""
    eve = scenario.gamma_e0
    if TasScheme(scheme) is TasScheme.ETAS:
        eve /= scenario.num_antennas
    return max(eve, scenario.gamma_b0)
