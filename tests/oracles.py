"""Independent numerical oracles used only by the tests.

These deliberately avoid the package's own series/continued-fraction and
trapezoid-in-ln-x code paths: the exponential-integral oracle is SciPy's
adaptive Gauss-Kronrod (QUADPACK) quadrature of the defining integral
(after the exact shift t = x + s so the integrand stays well scaled at large
x), and the ASC oracle integrates the product-form integrand the same way.
The low-SNR crossover limit needs no E1 at all. The instantaneous secrecy
capacity is the textbook numpy expression, gathered at an argmax. The one
exception is `btas_closed_sum_rule`, the package's former B-TAS hand-over
rule kept verbatim as the reference of the rule that replaced it.
"""

import math
import sys

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from tasec import secrecy
from tasec.selection import TasScheme


def scaled_e1_oracle(x: float) -> float:
    """exp(x) E1(x) = int_0^inf exp(-s)/(x+s) ds by adaptive quadrature."""
    value, _ = quad(lambda s: math.exp(-s) / (x + s), 0.0, np.inf,
                    epsabs=0.0, epsrel=1e-13, limit=500)
    return value


def e1_oracle(x: float) -> float:
    """E1(x) by adaptive quadrature of its defining integral."""
    return math.exp(-x) * scaled_e1_oracle(x)


def asc_integral_oracle(f_eve, sf_bob) -> float:
    """(1/ln 2) int_0^inf F_E(x) [1-F_B(x)] / (1+x) dx via QUADPACK."""
    value, _ = quad(lambda x: f_eve(x) * sf_bob(x) / (1.0 + x), 0.0, np.inf,
                    epsabs=1e-12, epsrel=1e-12, limit=500)
    return value / math.log(2.0)


def low_snr_crossover_ratio(m: int) -> float:
    """rho*(M): the ratio gamma_e0 / gamma_b0 at which the B-TAS and E-TAS
    ASC cross as gamma_b0 -> 0 at a fixed ratio rho.

    There C ~ (gamma_b0 / ln 2) (X - rho Y)^+, and for Y ~ Exp(1)
    E[(X - rho Y)^+] = E[X] - rho (1 - L_X(1/rho)), with L_X the Laplace
    transform of the selected legitimate gain X. B-TAS (X the max of M unit
    exponentials, Y ~ Exp(1)) gives H_M - rho (1 - prod_k k rho / (k rho + 1));
    E-TAS (X ~ Exp(1), Y the min of M) gives M / (M + rho). rho* is the root
    of the difference, which is positive at rho = 1 and negative for large
    rho when M >= 2; no term cancels.
    """
    harmonic = math.fsum(1.0 / k for k in range(1, m + 1))

    def gap(rho):
        laplace = math.prod(k * rho / (k * rho + 1.0) for k in range(1, m + 1))
        return harmonic - rho * (1.0 - laplace) - m / (m + rho)

    return brentq(gap, 1.0, 1e3, xtol=1e-14, rtol=4.0 * np.finfo(float).eps)


def snr_ratios(scenario, bob, eve):
    """Per-antenna SNR ratios (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E) as a new
    array, with the float operations of the package's kernel."""
    return (1.0 + scenario.gamma_b0 * bob) / (1.0 + scenario.gamma_e0 * eve)


def folded_snr_ratios(scenario, bob, eve):
    """The same ratios as a curve that folds its shared gamma_e0 forms them:
    gamma_b0 (g_B/E) + 1/E with E = 1 + gamma_e0 g_E, as a new array, with
    the float operations of the package's kernel."""
    e = 1.0 + scenario.gamma_e0 * eve
    return scenario.gamma_b0 * (bob / e) + 1.0 / e


def secrecy_capacity(gamma_b, gamma_e):
    """[log2(1+gamma_b) - log2(1+gamma_e)]^+ as one log of the SNR ratio,
    elementwise over arrays of instantaneous SNRs."""
    return np.maximum(0.0, np.log2((1.0 + gamma_b) / (1.0 + gamma_e)))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    theory = np.array([cdf(v) for v in ordered])
    upper = np.arange(1, n + 1) / n - theory
    lower = theory - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def btas_closed_sum_rule(scenario):
    """`secrecy.asc_btas_closed` as it was when it formed every C(M, k) and
    summed S = sum_k C(M,k) (ln(1 + 1/a_k) + ln(1 + 1/b_k)) / ln 2 before
    deciding its hand-over to quadrature: the O(M) reference of the O(1)
    decision that replaced it."""
    m = scenario.num_antennas
    if m > secrecy._BTAS_SUM_MAX_M:
        return secrecy.asc_quadrature(scenario, TasScheme.BTAS)
    inv_gb = 1.0 / scenario.gamma_b0
    inv_ge = 1.0 / scenario.gamma_e0
    args = [(math.comb(m, k), k * inv_gb, inv_ge + k * inv_gb)
            for k in range(1, m + 1)]
    try:
        scale = math.fsum(binom * (math.log1p(1.0 / a) + math.log1p(1.0 / b))
                          for binom, a, b in args) / math.log(2.0)
    except OverflowError:  # C(M,k) or S beyond a double
        scale = math.inf
    if 8.0 * sys.float_info.epsilon * scale > secrecy.BTAS_CLOSED_TOL:
        return secrecy.asc_quadrature(scenario, TasScheme.BTAS)
    terms = []
    for k, (binom, a, b) in enumerate(args, start=1):
        terms.append((binom if k % 2 else -binom) * secrecy.delta_e(a, b))
    value = max(0.0, math.fsum(terms) / math.log(2.0))
    return secrecy.AscEstimate(value=value, method=secrecy.Method.CLOSED)
