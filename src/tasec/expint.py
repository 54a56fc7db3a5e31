"""Exponential integral E1 and the difference function used by the closed forms.

Everything here is scalar double-precision math built from scratch:

  exp_scaled_e1(x)    exp(x) E1(x), overflow-safe              for x > 0
  delta_e(a, b)       exp(a) E1(a) - exp(b) E1(b)              for a, b > 0

where E1(x) = int_x^inf exp(-t)/t dt is the exponential integral.

The scaled form is the workhorse: for the extreme SNR ratios that show up in
wide dB sweeps, exp(x) alone would overflow long before E1(x) underflows, so
the product is computed without ever forming exp(x) when x > 1.
"""

import math

from .errors import ConvergenceError

# Euler-Mascheroni constant, series anchor for small arguments.
EULER_GAMMA = 0.57721566490153286060

# Terminate series/continued fraction once a step changes the running value
# by less than this relative amount; the cap turns stagnation into an error.
_REL_TOL = 1e-16
_MAX_ITER = 10_000

_TINY = 1e-300  # Lentz restart value for vanishing denominators


def _check_domain(x: float, name: str = "x") -> None:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")


def _e1_series(x: float) -> float:
    """Power series -gamma - ln x + sum_k (-1)^(k+1) x^k / (k k!), for x <= 1."""
    total = -EULER_GAMMA - math.log(x)
    u = 1.0  # (-x)^k / k!
    for k in range(1, _MAX_ITER + 1):
        u *= -x / k
        term = -u / k
        total += term
        if abs(term) < _REL_TOL * abs(total):
            return total
    raise ConvergenceError(f"E1 series did not converge for x={x!r}")


def _e1_scaled_cf(x: float) -> float:
    """Modified Lentz evaluation of exp(x) E1(x) for x > 1.

    Uses the classical continued fraction

        exp(x) E1(x) = 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...)))))

    whose partial numerators go 1, 1, 1, 2, 2, 3, 3, ... while the partial
    denominators alternate x, 1, x, 1, ...
    """
    f = _TINY
    c = f
    d = 0.0
    for j in range(1, _MAX_ITER + 1):
        a = 1.0 if j == 1 else float(j // 2)
        b = x if j % 2 == 1 else 1.0
        d = b + a * d
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return f
    raise ConvergenceError(f"E1 continued fraction did not converge for x={x!r}")


def exp_scaled_e1(x: float) -> float:
    """Overflow-safe exp(x) * E1(x), x > 0.

    Strictly decreasing, bounded by 1/(x+1) < exp(x) E1(x) < 1/x, and ~1/x as
    x grows. For x > 1 the continued fraction already yields the scaled value;
    for x <= 1 the series result is scaled by exp(x) <= e.
    """
    _check_domain(x)
    if x <= 1.0:
        return _e1_series(x) * math.exp(x)
    return _e1_scaled_cf(x)


def delta_e(a: float, b: float) -> float:
    """exp(a) E1(a) - exp(b) E1(b); positive iff b > a, zero iff a == b."""
    _check_domain(a, "a")
    _check_domain(b, "b")
    if a == b:
        return 0.0
    return exp_scaled_e1(a) - exp_scaled_e1(b)
