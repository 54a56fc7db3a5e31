"""Trapezoid quadrature in t = ln x of f(x) dx/(1 + x) over the half line,
the measure of every ASC integral of this package (f = F_E (1 - F_B)).

With x = exp(t) the integral becomes one of f(x) x/(1 + x) over the real
line, and every scale of f becomes a shift in t. The integrands of this
package are analytic in a strip about the real t axis, where the plain
trapezoid rule at a fixed step converges exponentially (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
2014): the step that resolves one scale resolves all of them. Each call runs
in its caller's floating-point state, and f owns it: the ASC integrand leaves
only underflow, which numpy ignores by default and under="raise" raises.
"""

import math
import sys
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

# The first node spacing in t. For g analytic in |Im t| < pi/2 the error of
# T(2 h) is of order exp(-pi^2 / (2 h)), about 1e-17 here, so T(h) - T(2 h)
# usually passes at once.
_STEP = 0.125
# The widest range at _STEP has 2 _T_LIMIT / _STEP = 11,357 nodes.
_MAX_NODES = 1 << 16
# exp(t) overflows above this t and loses precision below its negative.
_T_LIMIT = math.log(sys.float_info.max)


def _weights(x: np.ndarray, h: float) -> np.ndarray:
    """h x/(1 + x), the trapezoid weights of nodes x at step h, a new array."""
    return x / (1.0 + x) * h


# Every first-grid node x_k = exp(k _STEP), |k _STEP| <= _T_LIMIT, and its weight,
# read-only: 11,357 doubles, 91 KB, each. _STEP is a power of two, so a slice
# holds the doubles of np.exp(k * _STEP) and their _weights for its k.
_K_MAX = math.floor(_T_LIMIT / _STEP)
_NODES = np.arange(-_K_MAX, _K_MAX + 1, dtype=float)
_NODES *= _STEP
with np.errstate(under="ignore"):  # the lowest nodes and weights are subnormal
    np.exp(_NODES, out=_NODES)
    _WEIGHTS = _weights(_NODES, _STEP)
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


@lru_cache(maxsize=8)
def _ends(abs_tol: float) -> tuple[float, float, float]:
    """abs_tol/4; the left end ln(abs_tol/4), clamped for an abs_tol below 9e-308
    whose end would fall off the table; and ln(2 ln(4/abs_tol))."""
    share = 0.25 * abs_tol
    return share, max(math.log(share), -_T_LIMIT), math.log(2.0 * math.log(1.0 / share))


def _trapezoid(f, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """f(x) w, in f's result where it can be (see integrate_half_line), and its sum."""
    g = np.asarray(f(x), dtype=float)
    try:
        g *= w
    except ValueError:  # a result of another shape, or read-only
        if np.may_share_memory(g, _NODES) or np.may_share_memory(g, _WEIGHTS):
            raise  # x itself, or another view of a table
        g = w * g
    # A pole or an overflow inside f shows as an inf or NaN in the sum.
    total = float(np.add.reduce(g))
    if not math.isfinite(total):
        raise ConvergenceError("quadrature: the integrand is not finite")
    return g, total


def integrate_half_line(f, abs_tol: float = 1e-10, scale: float = 1.0) -> float:
    """Integrate f(x) dx/(1 + x) over [0, inf) to absolute tolerance, as the
    trapezoid sum T(h) = sum_k f(x_k) w_k, x_k = exp(k h), w_k = h x_k/(1 + x_k).

    `f` must evaluate elementwise on a 1-D numpy array x, once per grid. x may
    be a read-only view of the node table every call shares, and f's result is
    multiplied by w in place where it can be: f must not write into x nor
    return a view of a table (numpy raises ValueError), and an array f
    returns is overwritten. An f that can divide by zero or overflow enters
    np.errstate itself. `scale` is the largest x around which f rises or
    falls, such as the mean of its slowest exponential factor. The ends are
    first guessed as x = abs_tol/4 and x = 2 ln(4/abs_tol) scale, the right
    one at least two steps past the left. An end is kept only if |f w|/h there
    is at most abs_tol/4, which bounds the tail beyond it when |f| <= 1 near 0
    and f = O(1/x) at infinity; else it moves out by half the span and the
    grid is evaluated again. (A mass of f with |f| > 1 wholly below
    x = abs_tol/4 is not seen.) Then h is halved until
    |T(h) - T(2 h)| <= abs_tol/2; T(2 h) sums every second node.

    Raises ConvergenceError when halving would exceed _MAX_NODES nodes,
    when an end would leave the range of exp(t), or when f is not finite.
    """
    share, lo, span = _ends(abs_tol)
    hi = min(span + math.log(scale), _T_LIMIT)
    # A scale far below abs_tol puts hi under lo; a span of two steps keeps
    # at least two nodes, and the end checks widen it from there.
    hi = max(hi, lo + 2.0 * _STEP)

    h = _STEP
    while True:
        k0, k1 = math.ceil(lo / h), math.floor(hi / h)
        table = slice(k0 + _K_MAX, k1 + _K_MAX + 1)
        g, total = _trapezoid(f, _NODES[table], _WEIGHTS[table])
        lo_open, hi_open = abs(g.item(0)) / h > share, abs(g.item(-1)) / h > share
        if not (lo_open or hi_open):
            break
        if (lo_open and lo <= -_T_LIMIT) or (hi_open and hi >= _T_LIMIT):
            raise ConvergenceError(
                f"quadrature tolerance {abs_tol:.3e} not met: the integrand "
                "does not vanish within the range of a double")
        widen = 0.5 * (hi - lo)
        lo = max(lo - widen, -_T_LIMIT) if lo_open else lo
        hi = min(hi + widen, _T_LIMIT) if hi_open else hi

    coarse = 2.0 * float(np.add.reduce(g[k0 % 2::2]))
    t0, n = k0 * h, k1 - k0
    while abs(total - coarse) > 0.5 * abs_tol:
        if 2 * n + 1 > _MAX_NODES:
            raise ConvergenceError(f"quadrature tolerance {abs_tol:.3e} not met "
                                   f"within {_MAX_NODES} nodes")
        x = np.exp(t0 + (np.arange(n) + 0.5) * h)
        h, n = 0.5 * h, 2 * n
        _, mid = _trapezoid(f, x, _weights(x, h))
        coarse, total = total, 0.5 * total + mid
    return total
