"""Exponential integral E1 and the difference function used by the closed forms.

Everything here is scalar double-precision math built from scratch:

  exp_scaled_e1(x)    exp(x) E1(x), overflow-safe              for x > 0
  delta_e(a, b)       exp(a) E1(a) - exp(b) E1(b)              for a, b > 0

where E1(x) = int_x^inf exp(-t)/t dt is the exponential integral. The scaled
form never forms exp(x) for x > 1, which would overflow long before E1(x)
underflows at the extreme SNR ratios of wide dB sweeps.

Both branches do an amount of work set by x alone, with no convergence
test. Their loops read the recurrence coefficients from constant tuples of
doubles built at import (_SERIES_RATIOS, _CF_TERMS) instead of forming
them from ints on every step. The coefficients are integers below 2^15,
exact as doubles, so each step is the same IEEE operation on the same
values. Against 40-digit mpmath their relative error stays below 7e-16
(3.2 eps) on [5e-324, 1.8e308]; the worst points, 6.96e-16 in 30,000, lie
just below 1, where E1 is a small difference of its series terms.

Both public functions check their arguments, then read exp(x) E1(x) from
a memo of the last 256 distinct arguments; `delta_e_unchecked`, the closed
forms' seam, reads the memo without the checks. The closed forms of one figure
or one crossover search share most of their arguments, k/gamma_b0 and
1/gamma_e0 + k/gamma_b0, so about two calls in three are served from it.
The memo is keyed on the exact argument and its type (an int, a float and
a numpy float64 of one value are three keys), so each hit returns the value
the branches compute for that argument, of the same type. It holds no state
other than those cached values.
"""

import functools
import math

from .channel import require_positive

# Euler-Mascheroni constant, series anchor for small arguments.
EULER_GAMMA = 0.57721566490153286060

# At x = 1 the 20th series term is 2e-20, far below the rounding of E1(1) = 0.22.
_SERIES_TERMS = 20
# (largest x, terms) for fewer terms: past n terms the sum drops about
# x^(n+1) / ((n+1) (n+1)!), kept below 2^-74. The result is at least 0.59
# for x <= 1, so the shorter sum rounds to the same double as 20 terms.
_SERIES_CUTS = tuple((((n + 1) * math.factorial(n + 1) * 2.0 ** -74) ** (1.0 / (n + 1)), n)
                     for n in (3, 5, 8, 12, 16))
# (k, (k+1)^2) for k = _SERIES_TERMS-1 .. 1, innermost first as the nesting runs.
_SERIES_RATIOS = tuple((float(k), float((k + 1) * (k + 1)))
                       for k in range(_SERIES_TERMS - 1, 0, -1))

# The deepest continued fraction, at x -> 1+, is 8 + 119 = 127 terms.
_CF_DEPTH = 127
# (2k - 1, k^2) for k = _CF_DEPTH .. 1, deepest first as the recurrence runs.
_CF_TERMS = tuple((float(2 * k - 1), float(k * k)) for k in range(_CF_DEPTH, 0, -1))

# Distinct arguments the memo keeps. A gap evaluation of a crossover search
# at M = 64 reads 129 (2M for the B-TAS sum, one more for E-TAS), so the 64
# k/gamma_b0 every evaluation shares stay resident from one to the next.
_MEMO_SIZE = 256


def _e1_scaled_series(x: float) -> float:
    """exp(x) E1(x) for x <= 1, with E1(x) = L + s, L = -ln x and
    s = -gamma + sum_k (-1)^(k+1) x^k / (k k!). The sum is nested on the
    term ratios -x k/(k+1)^2 and evaluated from the inside out. Writing the
    result L + (expm1(x) (L + s) + s) rounds the log term, large at small x,
    only by log and by the final sum."""
    for x_max, terms in _SERIES_CUTS:
        if x <= x_max:
            break
    else:
        terms = _SERIES_TERMS
    nested = 1.0
    for k, k1_squared in _SERIES_RATIOS[_SERIES_TERMS - terms:]:
        nested = 1.0 - x * k / k1_squared * nested
    log_part = -math.log(x)
    rest = x * nested - EULER_GAMMA
    return log_part + (math.expm1(x) * (log_part + rest) + rest)


def _e1_scaled_cf(x: float) -> float:
    """exp(x) E1(x) for x > 1 by the even contraction of the continued
    fraction (Numerical Recipes, sec. 6.3),

        exp(x) E1(x) = 1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...))),

    evaluated backward from depth 8 + int(120/x). That clears the measured
    minimum depth for 3e-16 (95 at x -> 1+, 50 at x = 2, 14 at x = 10, 4 at
    x = 100) with margin. The cut tail x + 2 depth + 1 is above its true
    value, and t -> b - k^2/t is increasing, so every tail stays positive.
    """
    depth = 8 + int(120.0 / x)
    tail = x + (2 * depth + 1)
    for odd, k_squared in _CF_TERMS[_CF_DEPTH - depth:]:
        tail = x + odd - k_squared / tail
    return 1.0 / tail


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _exp_scaled_e1(x: float) -> float:
    """exp(x) E1(x) of a checked x > 0, by the branch x selects."""
    return _e1_scaled_series(x) if x <= 1.0 else _e1_scaled_cf(x)


def exp_scaled_e1(x: float) -> float:
    """Overflow-safe exp(x) * E1(x), x > 0.

    Strictly decreasing, bounded by 1/(x+1) < exp(x) E1(x) < 1/x, and ~1/x as
    x grows.
    """
    require_positive(x, "x")
    return _exp_scaled_e1(x)


def delta_e(a: float, b: float) -> float:
    """exp(a) E1(a) - exp(b) E1(b); positive iff b > a, zero iff a == b."""
    require_positive(a, "a")
    require_positive(b, "b")
    return _exp_scaled_e1(a) - _exp_scaled_e1(b)


def delta_e_unchecked(a: float, b: float) -> float:
    """delta_e of arguments already known to be finite reals > 0, as the
    closed forms' are by Scenario's rules: the memo's difference, without
    the checks."""
    return _exp_scaled_e1(a) - _exp_scaled_e1(b)
