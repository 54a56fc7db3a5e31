"""Adaptive Gauss-Kronrod quadrature with a half-line transform.

A 7/15-point Gauss-Kronrod rule is applied to every pending panel of a round
at once: the integrand is called one time per round, on an (n, 15) array of
abscissas. A panel is final once QUADPACK's error estimate is within its
share of the absolute tolerance; every other panel is cut into 8 for the
next round. Semi-infinite integrals are mapped onto [-1/2, 1/2] with both
ends of the half line at 0 (see integrate_half_line); the integrands used in
this package decay exponentially, which tames the Jacobian blow-up there.
"""

import math

import numpy as np

from .errors import ConvergenceError

# 15-point Kronrod nodes on [0, 1] and their weights (QUADPACK's qk15,
# exact to well beyond double precision), mirrored onto [-1, 1] below; the 7
# Gauss nodes are the odd-indexed entries.
_KRONROD_HALF = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649),
    (0.0, 0.209482141084727828012999174891714),
)
_GAUSS_HALF = (0.129484966168869693270611432679082,
               0.279705391489276667901467771423780,
               0.381830050505118944950369775488975,
               0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x, _ in _KRONROD_HALF] + [x for x, _ in _KRONROD_HALF[-2::-1]])
_W_KRONROD = np.array([w for _, w in _KRONROD_HALF] + [w for _, w in _KRONROD_HALF[-2::-1]])
_W_GAUSS = np.array(_GAUSS_HALF + _GAUSS_HALF[-2::-1])
# Both rules as the columns of one (15, 2) matrix; the Gauss rule weighs only
# the odd-indexed nodes.
_W_KG = np.zeros((15, 2))
_W_KG[:, 0] = _W_KRONROD
_W_KG[1::2, 1] = _W_GAUSS

# Each panel that misses its error share is cut into this many equal parts.
_SPLIT = 8
_SPLIT_FRACTIONS = np.linspace(0.0, 1.0, _SPLIT + 1)


def integrate_adaptive(f, a: float, b: float, abs_tol: float = 1e-10,
                       max_intervals: int = 2000, seed_intervals: int = 16,
                       breakpoints=()) -> float:
    """Integrate a vectorized callable over [a, b] to absolute tolerance.

    `f` must evaluate elementwise on a 2-D numpy array of abscissas; it is
    called once per round, on the 15 nodes of every pending panel. The first
    round covers [a, b] with `seed_intervals` equal panels, also cut at each
    of `breakpoints` inside (a, b). A panel of width w is final when its
    error estimate is at most abs_tol/2 * w/(b-a) + abs_tol/(2*max_intervals),
    so the summed estimate over at most `max_intervals` final panels is at
    most `abs_tol`; every other panel is cut into 8 for the next round.
    Raises ConvergenceError when final and pending panels together would
    exceed `max_intervals`.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a!r}, {b!r}]")
    step = (b - a) / seed_intervals
    edges = {a + i * step for i in range(seed_intervals)}
    edges.update(p for p in breakpoints if a < p < b)
    edges = np.array(sorted(edges) + [b])
    lo, hi = edges[:-1], edges[1:]
    # err <= abs_tol/2 * w/(b-a) + share_floor, with w = 2 * half
    share_per_half = abs_tol / (b - a)
    share_floor = 0.5 * abs_tol / max_intervals
    values = []  # of the final panels
    # A non-finite integrand value or estimate can never pass the acceptance
    # test, so it ends in ConvergenceError rather than in a numpy warning.
    with np.errstate(all="ignore"):
        while True:
            if len(values) + lo.size > max_intervals:
                raise ConvergenceError(
                    f"quadrature tolerance {abs_tol:.3e} not met within "
                    f"{max_intervals} intervals ({lo.size} unresolved)")
            half = 0.5 * (hi - lo)
            y = np.asarray(f(0.5 * (lo + hi)[:, None] + half[:, None] * _GK_NODES),
                           dtype=float)
            kg = y @ _W_KG
            k15 = half * kg[:, 0]
            # QUADPACK's estimate resasc * min(1, (200 |K - G| / resasc)^1.5),
            # scaled by the panel's spread about its mean (resasc) so that it
            # holds for small integrands too. fmin drops the 0/0 of a
            # constant panel and keeps the NaN of a non-finite one.
            diff = np.abs(half * (kg[:, 0] - kg[:, 1]))
            resasc = half * (np.abs(y - 0.5 * kg[:, :1]) @ _W_KRONROD)
            err = np.fmin(resasc, (200.0 * diff) ** 1.5 / np.sqrt(resasc))
            final = err <= share_per_half * half + share_floor
            values += k15[final].tolist()
            if final.all():
                break
            pending = ~final
            lo, hi = lo[pending], hi[pending]
            cuts = lo[:, None] + (hi - lo)[:, None] * _SPLIT_FRACTIONS
            cuts[:, -1] = hi
            lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    # fsum is correctly rounded, so the result does not depend on the order
    # in which panels became final.
    return math.fsum(values)


def integrate_half_line(f, abs_tol: float = 1e-10, max_intervals: int = 2000,
                        scales=()) -> float:
    """Integrate f over [0, inf) on v in [-1/2, 1/2].

    v in [0, 1/2] maps onto x = v/(1-v) in [0, 1], and v in [-1/2, 0) onto
    x = (1-t)/t in (1, inf) with t = -v. Both ends of the half line then sit
    at v = 0, where doubles are dense: a node's rounding moves x by a
    relative, not an absolute, amount, also far out in the tail.

    Each of `scales` is an x around which f rises or falls, such as the mean
    of an exponential factor. A step much narrower than a seed panel sits
    between that panel's GK nodes, where no error estimate can see it, so
    x = s, 8s and 64s become seed edges.
    """

    def transformed(v):
        near = v >= 0.0
        den = np.where(near, 1.0 - v, -v)
        return f(np.where(near, v, 1.0 + v) / den) / den / den

    edges = [x / (1.0 + x) if x <= 1.0 else -1.0 / (1.0 + x)
             for s in scales for x in (s, 8.0 * s, 64.0 * s)]
    # The map jumps from x = inf to x = 0 at v = 0, so 0 is always an edge.
    return integrate_adaptive(transformed, -0.5, 0.5, abs_tol=abs_tol,
                              max_intervals=max_intervals,
                              breakpoints=[0.0, *edges])
