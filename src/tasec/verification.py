"""Self-verification: cross-checks between the independent evaluation routes.

Each check pits two routes against each other (closed form vs quadrature,
Monte Carlo vs closed form, selector vs selector), so a defect in any single
route shows up as a failed cross-check rather than a silently wrong number.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import RngStream, Scenario, draw_gain_blocks
from .experiments import db_to_linear
from .secrecy import (_chunk_layout, asc_btas_closed, asc_etas_closed,
                      asc_otas_mc, asc_quadrature, mc_asc, secrecy_capacity)
from .selection import TasScheme, select_indices

GRID_DB = (-10.0, 0.0, 10.0, 20.0, 30.0)
MC_GRID_DB = (0.0, 10.0, 20.0)
GRID_ANTENNAS = (1, 2, 4, 8)
MC_ANTENNAS = (2, 8)

CLOSED_VS_QUAD_TOL = 1e-6
EXACT_IDENTITY_TOL = 1e-14
MC_SIGMA = 4.0

# Stream branches keeping every check's draws disjoint.
_BRANCH_MC_VS_CLOSED = 1
_BRANCH_DOMINANCE = 2
_BRANCH_SINGLE_ANTENNA = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _scenario(gb_db: float, ge_db: float, m: int) -> Scenario:
    return Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)


def check_closed_vs_quadrature() -> CheckResult:
    """Both closed forms against the adaptive quadrature of the ASC integral."""
    worst = 0.0
    count = 0
    for gb_db, ge_db, m in product(GRID_DB, GRID_DB, GRID_ANTENNAS):
        scenario = _scenario(gb_db, ge_db, m)
        for scheme, closed in ((TasScheme.BTAS, asc_btas_closed(scenario)),
                               (TasScheme.ETAS, asc_etas_closed(scenario))):
            quad = asc_quadrature(scenario, scheme)
            worst = max(worst, abs(quad.value - closed.value))
            count += 1
    return CheckResult(
        "closed-vs-quadrature", worst <= CLOSED_VS_QUAD_TOL,
        f"{count} comparisons, max |diff| = {worst:.3e} (tol {CLOSED_VS_QUAD_TOL:g})")


def check_mc_vs_closed(trials: int, seed: int, threads: int = 1) -> CheckResult:
    """Monte Carlo against the closed forms at 4 sigma on the reduced grid."""
    base = RngStream(seed)
    worst_sigma = 0.0
    failures = 0
    task = 0
    for gb_db, ge_db, m in product(MC_GRID_DB, MC_GRID_DB, MC_ANTENNAS):
        scenario = _scenario(gb_db, ge_db, m)
        for scheme, closed in ((TasScheme.BTAS, asc_btas_closed(scenario)),
                               (TasScheme.ETAS, asc_etas_closed(scenario))):
            est = mc_asc(scenario, scheme, trials,
                         base.substream(_BRANCH_MC_VS_CLOSED, task), threads=threads)
            task += 1
            sigma = abs(est.value - closed.value) / est.std_error
            worst_sigma = max(worst_sigma, sigma)
            if sigma > MC_SIGMA:
                failures += 1
    return CheckResult(
        "mc-vs-closed", failures == 0,
        f"{task} points x {trials} trials, worst deviation = "
        f"{worst_sigma:.2f} sigma (limit {MC_SIGMA:g})")


def check_otas_dominance(realizations: int, seed: int) -> CheckResult:
    """Per-realization optimality of the full-CSI selector at (10, 10) dB, M=8."""
    scenario = _scenario(10.0, 10.0, 8)
    base = RngStream(seed)
    violations = 0
    others = (TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM)
    for chunk, size in _chunk_layout(realizations):
        stream = base.substream(_BRANCH_DOMINANCE, chunk)
        bob, eve = draw_gain_blocks(scenario, stream, size)
        cs = secrecy_capacity(scenario.gamma_b0 * bob, scenario.gamma_e0 * eve)
        rows = np.arange(size)
        best = cs[rows, select_indices(TasScheme.OTAS, scenario, bob, eve)]
        for scheme in others:
            idx = select_indices(scheme, scenario, bob, eve, rng=stream)
            violations += int(np.count_nonzero(cs[rows, idx] > best))
    return CheckResult(
        "otas-dominance", violations == 0,
        f"{realizations} realizations x {len(others)} rival schemes, "
        f"{violations} violations")


def check_factor_m_identity() -> CheckResult:
    """E-TAS closed form equals the single-antenna form with the
    eavesdropper SNR divided by M."""
    worst = 0.0
    count = 0
    for gb_db, ge_db, m in product(GRID_DB, GRID_DB, GRID_ANTENNAS):
        multi = asc_etas_closed(_scenario(gb_db, ge_db, m))
        ge = db_to_linear(ge_db)
        single = asc_etas_closed(Scenario(db_to_linear(gb_db), ge / m, 1))
        worst = max(worst, abs(multi.value - single.value))
        count += 1
    return CheckResult(
        "factor-m-identity", worst <= EXACT_IDENTITY_TOL,
        f"{count} points, max |diff| = {worst:.3e} (tol {EXACT_IDENTITY_TOL:g})")


def check_single_antenna(trials: int, seed: int, threads: int = 1) -> CheckResult:
    """With one antenna every criterion selects the same antenna: the two
    closed forms must coincide and the optimal-scheme MC must agree."""
    worst = 0.0
    for gb_db, ge_db in product(GRID_DB, GRID_DB):
        scenario = _scenario(gb_db, ge_db, 1)
        worst = max(worst, abs(asc_btas_closed(scenario).value
                               - asc_etas_closed(scenario).value))
    if worst > EXACT_IDENTITY_TOL:
        return CheckResult(
            "single-antenna-degeneracy", False,
            f"closed forms disagree at M=1: max |diff| = {worst:.3e}")

    base = RngStream(seed)
    worst_sigma = 0.0
    for task, (gb_db, ge_db) in enumerate(product(MC_GRID_DB, MC_GRID_DB)):
        scenario = _scenario(gb_db, ge_db, 1)
        est = asc_otas_mc(scenario, trials,
                          base.substream(_BRANCH_SINGLE_ANTENNA, task), threads=threads)
        sigma = abs(est.value - asc_btas_closed(scenario).value) / est.std_error
        worst_sigma = max(worst_sigma, sigma)
    return CheckResult(
        "single-antenna-degeneracy", worst_sigma <= MC_SIGMA,
        f"closed forms match to {EXACT_IDENTITY_TOL:g}; optimal-scheme MC "
        f"worst deviation = {worst_sigma:.2f} sigma")


def run_verification(trials: int = 1_000_000, seed: int = 42,
                     threads: int = 1) -> list[CheckResult]:
    """Run every cross-check; an exception inside a check counts as failure."""
    checks = (
        ("closed-vs-quadrature", check_closed_vs_quadrature),
        ("mc-vs-closed", lambda: check_mc_vs_closed(trials, seed, threads)),
        ("otas-dominance", lambda: check_otas_dominance(trials, seed)),
        ("factor-m-identity", check_factor_m_identity),
        ("single-antenna-degeneracy",
         lambda: check_single_antenna(trials, seed, threads)),
    )
    results = []
    for name, run in checks:
        try:
            results.append(run())
        except Exception as exc:  # a broken route must fail its check, not the suite
            results.append(CheckResult(name, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
