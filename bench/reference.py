"""Reference values computed apart from the program, with mpmath alone.

- B-TAS and E-TAS: the closed forms, evaluated at 60 significant digits so
  the alternating binomial sum of B-TAS keeps its accuracy up to M = 64.
- Random selection: the single-antenna closed form (the choice ignores both
  links, so the selected SNRs are those of one antenna).
- O-TAS: the single-ratio integral
      (1/ln 2) int_1^inf [1 - F_R(r)^M] / r dr,
      F_R(r) = 1 - exp(-(r - 1)/gB) / (1 + r gE/gB),
  the distribution of max_i R_i with R_i = (1 + gB gB_i)/(1 + gE gE_i) i.i.d.
  over antennas. Integrated by tanh-sinh quadrature with breakpoints at the
  scales of both factors.

Nothing here imports the program. Inputs are the exact doubles the program
receives (linear SNRs), or dB values converted here at full precision.
"""

from functools import lru_cache

import mpmath as mp

DIGITS = 60
OTAS_DIGITS = 20

# Crossover checks: the program stops bisecting once |gap| <= 1e-9 bits, so
# its answer may sit that far (in gap) from the true root.
CROSSOVER_GAP_TOL = 1e-9
_SLOPE_STEP_DB = 1e-3


def _mpf(x) -> mp.mpf:
    return mp.mpf(x)


def db_to_linear(x_db) -> mp.mpf:
    return mp.power(10, _mpf(x_db) / 10)


@lru_cache(maxsize=None)
def _scaled_e1(x: mp.mpf) -> mp.mpf:
    """exp(x) E1(x) at the working precision."""
    return mp.exp(x) * mp.e1(x)


def _delta_e(a, b):
    return _scaled_e1(a) - _scaled_e1(b)


def asc_btas(gamma_b, gamma_e, m: int) -> mp.mpf:
    with mp.workdps(DIGITS):
        inv_b, inv_e = 1 / _mpf(gamma_b), 1 / _mpf(gamma_e)
        total = mp.mpf(0)
        for k in range(1, m + 1):
            term = mp.binomial(m, k) * _delta_e(k * inv_b, inv_e + k * inv_b)
            total += term if k % 2 else -term
        return total / mp.log(2)


def asc_etas(gamma_b, gamma_e, m: int) -> mp.mpf:
    with mp.workdps(DIGITS):
        inv_b = 1 / _mpf(gamma_b)
        return _delta_e(inv_b, m / _mpf(gamma_e) + inv_b) / mp.log(2)


def asc_random(gamma_b, gamma_e) -> mp.mpf:
    return asc_etas(gamma_b, gamma_e, 1)


def asc_otas(gamma_b, gamma_e, m: int) -> mp.mpf:
    with mp.workdps(OTAS_DIGITS):
        gb, ge = _mpf(gamma_b), _mpf(gamma_e)

        def integrand(r):
            tail = mp.exp(-(r - 1) / gb) / (1 + r * ge / gb)  # 1 - F_R(r)
            return -mp.expm1(m * mp.log1p(-tail)) / r

        points = {1 + gb * s for s in (mp.mpf("0.01"), mp.mpf("0.1"), 1, 10, 100)}
        if gb / ge > 1:
            points.add(gb / ge)
        nodes = [mp.mpf(1), *sorted(points), mp.inf]
        return mp.quad(integrand, nodes) / mp.log(2)


def asc(scheme: str, gamma_b, gamma_e, m: int) -> mp.mpf:
    if scheme == "btas":
        return asc_btas(gamma_b, gamma_e, m)
    if scheme == "etas":
        return asc_etas(gamma_b, gamma_e, m)
    if scheme == "random":
        return asc_random(gamma_b, gamma_e)
    if scheme == "otas":
        return asc_otas(gamma_b, gamma_e, m)
    raise ValueError(f"unknown scheme {scheme!r}")


def crossover_gap(gamma_b_db, ratio_db, m: int) -> mp.mpf:
    """B-TAS minus E-TAS at legitimate SNR gamma_b_db and SNR ratio ratio_db."""
    with mp.workdps(DIGITS):
        gb = db_to_linear(gamma_b_db)
        ge = db_to_linear(_mpf(gamma_b_db) + _mpf(ratio_db))
        return asc_btas(gb, ge, m) - asc_etas(gb, ge, m)


def crossover_brackets_root(gamma_b_db, ratio_db, m: int) -> bool:
    """True when the reference gap changes sign within the distance from
    `ratio_db` that the program's gap tolerance allows at the local slope."""
    with mp.workdps(DIGITS):
        x = _mpf(ratio_db)
        h = mp.mpf(_SLOPE_STEP_DB)
        slope = (crossover_gap(gamma_b_db, x + h, m)
                 - crossover_gap(gamma_b_db, x - h, m)) / (2 * h)
        if slope == 0:
            return False
        delta = mp.mpf("1e-9") + 2 * CROSSOVER_GAP_TOL / abs(slope)
        lo = crossover_gap(gamma_b_db, x - delta, m)
        hi = crossover_gap(gamma_b_db, x + delta, m)
        return (lo > 0) != (hi > 0)
