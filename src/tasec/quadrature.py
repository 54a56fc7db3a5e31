"""Trapezoid quadrature over the half line in t = ln x.

With x = exp(t), an integral over [0, inf) becomes one of g(t) = x f(x) over
the real line, and every scale of f becomes a shift in t. The integrands of
this package are analytic in a strip about the real t axis, where the plain
trapezoid rule at a fixed step converges exponentially (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
2014): the step that resolves one scale resolves all of them.
"""

import math
import sys

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

# Every first-grid node x_k = exp(k _STEP), |k _STEP| <= _T_LIMIT, computed
# once and read-only: 11,357 doubles, 91 KB. _STEP is a power of two, so
# k _STEP is exact and a slice holds the same doubles as np.exp(k * _STEP)
# for that slice's k. Built in place, so only this one array is kept.
_K_MAX = math.floor(_T_LIMIT / _STEP)
_NODES = np.arange(-_K_MAX, _K_MAX + 1, dtype=float)
_NODES *= _STEP
with np.errstate(under="ignore"):  # the lowest nodes are subnormal
    np.exp(_NODES, out=_NODES)
_NODES.flags.writeable = False


def integrate_half_line(f, abs_tol: float = 1e-10, scale: float = 1.0) -> float:
    """Integrate f over [0, inf) to absolute tolerance, as the trapezoid sum
    T(h) = h sum_k g(k h) of g(t) = exp(t) f(exp(t)).

    `f` must evaluate elementwise on a 1-D numpy array, and is called once
    per grid. Its argument x may be a read-only view of the node table that
    every call shares, so f must not write into x (numpy raises ValueError).
    `scale` is the largest x around which f rises or falls, such as the
    mean of its slowest exponential factor. The ends are first
    guessed as x = abs_tol/4 and x = 2 ln(4/abs_tol) scale, the right one at
    least two steps past the left. An end is kept only if |g| there
    is at most abs_tol/4, which bounds the tail beyond it when |g| decays
    from there at least like exp(-|t|): |f| <= 1 near 0 and f = O(1/x^2) at
    infinity. Otherwise that end moves out by half the span and the grid is
    evaluated again. (A mass of f with |f| > 1 wholly below x = abs_tol/4
    is not seen.) Then h is halved until |T(h) - T(2 h)| <= abs_tol/2;
    T(2 h) sums every second node.

    Raises ConvergenceError when halving would exceed _MAX_NODES nodes,
    when an end would leave the range of exp(t), or when f is not finite.
    """
    share = 0.25 * abs_tol
    # Clamped for an abs_tol below 9e-308, whose lo would fall off the table.
    lo = max(math.log(share), -_T_LIMIT)
    hi = min(math.log(2.0 * math.log(1.0 / share)) + math.log(scale), _T_LIMIT)
    # A scale far below abs_tol puts hi under lo; a span of two steps keeps
    # at least two nodes, and the end checks widen it from there.
    hi = max(hi, lo + 2.0 * _STEP)

    def trapezoid(x, h):
        # A pole or an overflow inside f shows as an inf or NaN in the sum.
        with np.errstate(all="ignore"):
            g = x * np.asarray(f(x), dtype=float)
        total = h * float(g.sum())
        if not math.isfinite(total):
            raise ConvergenceError("quadrature: the integrand is not finite")
        return g, total

    h = _STEP
    while True:
        k0, k1 = math.ceil(lo / h), math.floor(hi / h)
        g, total = trapezoid(_NODES[k0 + _K_MAX:k1 + _K_MAX + 1], h)
        lo_open, hi_open = abs(g[0]) > share, abs(g[-1]) > share
        if not (lo_open or hi_open):
            break
        if (lo_open and lo <= -_T_LIMIT) or (hi_open and hi >= _T_LIMIT):
            raise ConvergenceError(
                f"quadrature tolerance {abs_tol:.3e} not met: the integrand "
                "does not vanish within the range of a double")
        widen = 0.5 * (hi - lo)
        lo = max(lo - widen, -_T_LIMIT) if lo_open else lo
        hi = min(hi + widen, _T_LIMIT) if hi_open else hi

    coarse = 2.0 * h * float(g[k0 % 2::2].sum())
    t0, n = k0 * h, k1 - k0
    while abs(total - coarse) > 0.5 * abs_tol:
        if 2 * n + 1 > _MAX_NODES:
            raise ConvergenceError(f"quadrature tolerance {abs_tol:.3e} not met "
                                   f"within {_MAX_NODES} nodes")
        with np.errstate(under="ignore"):
            mid_nodes = np.exp(t0 + (np.arange(n) + 0.5) * h)
        _, mid = trapezoid(mid_nodes, 0.5 * h)
        coarse, total = total, 0.5 * total + mid
        h, n = 0.5 * h, 2 * n
    return total
