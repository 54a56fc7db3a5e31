"""Self-verification: cross-checks between the independent evaluation routes.

Each check pits two routes against each other (closed form vs quadrature,
Monte Carlo vs closed form, selector vs selector), so a defect in any single
route shows up as a failed cross-check rather than a silently wrong number.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import RngStream, Scenario
from .experiments import db_to_linear
from .secrecy import (AscEstimate, Method, _capacities, _chunk_layout, _drawn_chunk,
                      _mc_asc_curves, _run_queue, asc)
from .selection import TasScheme

MC_GRID_DB = (0.0, 10.0, 20.0)
QUAD_GRID_DB = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
QUAD_ANTENNAS = (1, 2, 4, 8, 16, 32, 64)
MC_ANTENNAS = (1, 2, 8)

CLOSED_VS_QUAD_TOL = 1e-6
EXACT_IDENTITY_TOL = 1e-14
MC_SIGMA = 4.0
# mc-vs-closed compares a point only if this many of its trials are expected
# to have a positive capacity: a mean of fewer is too far from normal for a
# sigma limit.
MC_MIN_POSITIVE = 1_000

# Stream branches keeping every check's draws disjoint.
_BRANCH_MC_VS_CLOSED = 1
_BRANCH_DOMINANCE = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _scenario(gb_db: float, ge_db: float, m: int) -> Scenario:
    return Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)


def _sigmas(est: AscEstimate, reference: float) -> float:
    """|est - reference| in standard errors of `est`. A standard error of 0
    (every trial alike, as where no trial has a positive capacity) counts
    as 0 sigma if the two are equal, else as infinitely many."""
    diff = abs(est.value - reference)
    if est.std_error > 0.0:
        return diff / est.std_error
    return 0.0 if diff == 0.0 else math.inf


def _positive_share(scheme: TasScheme, scenario: Scenario) -> float:
    """P(C > 0) at the antenna B-TAS or E-TAS selects, with
    rho = gamma_e0/gamma_b0: 1 - prod_k k rho/(k rho + 1) over k = 1..M for
    B-TAS (1/(1 + rho) at M = 1, for every scheme), M/(M + rho) for E-TAS."""
    rho, m = scenario.gamma_e0 / scenario.gamma_b0, scenario.num_antennas
    if scheme is TasScheme.ETAS:
        return m / (m + rho)
    return 1.0 - math.prod(k * rho / (k * rho + 1.0) for k in range(1, m + 1))


def _max_diff(name: str, pairs: list[tuple[float, float]], tol: float,
              what: str) -> CheckResult:
    """`name` passes when no pair of values differs by more than `tol`. The
    detail line gives the number of pairs, `what` they are, and the worst
    difference."""
    worst = max((abs(a - b) for a, b in pairs), default=0.0)
    return CheckResult(name, worst <= tol,
                       f"{len(pairs)} {what}max |diff| = {worst:.3e} (tol {tol:g})")


def check_closed_vs_quadrature() -> CheckResult:
    """Both closed forms against the quadrature of the ASC integral. Where
    the B-TAS sum hands over to quadrature (method quad), the point is
    skipped: it would compare quadrature with itself."""
    pairs, skipped = [], 0
    for gb_db, ge_db, m in product(QUAD_GRID_DB, QUAD_GRID_DB, QUAD_ANTENNAS):
        scenario = _scenario(gb_db, ge_db, m)
        for scheme in (TasScheme.BTAS, TasScheme.ETAS):
            closed = asc(scenario, scheme, Method.CLOSED)
            if closed.method is Method.QUAD:
                skipped += 1
                continue
            pairs.append((closed.value, asc(scenario, scheme, Method.QUAD).value))
    return _max_diff("closed-vs-quadrature", pairs, CLOSED_VS_QUAD_TOL,
                     f"comparisons ({skipped} B-TAS points handed over to "
                     "quadrature skipped), ")


def check_mc_vs_closed(trials: int, seed: int, threads: int = 1) -> CheckResult:
    """Monte Carlo against the closed forms at 4 sigma on the reduced grid:
    B-TAS and E-TAS against their own closed forms at M > 1, and O-TAS
    against the B-TAS closed form at M = 1, where every criterion selects
    the one antenna. One _mc_asc_curves call, a curve per antenna count on
    one chunk queue, draws each chunk once for all of that count's schemes
    and grid points. A point with fewer than MC_MIN_POSITIVE expected
    positive capacities is not compared, and is counted as under-sampled."""
    base = RngStream(seed)
    grid = list(product(MC_GRID_DB, MC_GRID_DB))
    worst_sigma = 0.0
    count = under_sampled = 0
    zero_errors = []  # points whose std_error is 0 and misses the closed form
    scenarios = [[_scenario(gb_db, ge_db, m) for gb_db, ge_db in grid] for m in MC_ANTENNAS]
    pairs = [{TasScheme.OTAS: TasScheme.BTAS} if m == 1
             else {s: s for s in (TasScheme.BTAS, TasScheme.ETAS)} for m in MC_ANTENNAS]
    curves = _mc_asc_curves([(points, list(schemes), base.substream(_BRANCH_MC_VS_CLOSED, mi))
                             for mi, (points, schemes) in enumerate(zip(scenarios, pairs))],
                            trials, threads)
    for m, points, schemes, curve in zip(MC_ANTENNAS, scenarios, pairs, curves):
        for scheme, closed_scheme in schemes.items():
            for (gb_db, ge_db), scenario, est in zip(grid, points, curve[scheme]):
                count += 1
                if trials * _positive_share(closed_scheme, scenario) < MC_MIN_POSITIVE:
                    under_sampled += 1
                    continue
                sigma = _sigmas(est, asc(scenario, closed_scheme, Method.CLOSED).value)
                if math.isinf(sigma):
                    zero_errors.append(f"{scheme.value} ({gb_db:g}, {ge_db:g}) dB M={m}")
                worst_sigma = max(worst_sigma, sigma)
    note = f"; under-sampled: {under_sampled} points" if under_sampled else ""
    if zero_errors:
        note += f"; std_error 0 off the reference at {', '.join(zero_errors)}"
    return CheckResult(
        "mc-vs-closed", worst_sigma <= MC_SIGMA,
        f"{count} points x {trials} trials, worst deviation = "
        f"{worst_sigma:.2f} sigma (limit {MC_SIGMA:g}){note}")


def check_otas_dominance(realizations: int, seed: int, threads: int = 1) -> CheckResult:
    """Per-realization optimality of O-TAS at (10, 10) dB, M=8, by the
    selection and capacity kernels Monte Carlo runs. Its chunks run on the
    Monte Carlo worker queue, each on its own substream and drawn as a Monte
    Carlo chunk is, so the count does not depend on `threads`."""
    scenario = _scenario(10.0, 10.0, 8)
    m = scenario.num_antennas
    base = RngStream(seed)
    others = (TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM)
    schemes = (*others, TasScheme.OTAS)

    def violations(chunk: tuple[int, int]) -> int:
        index, size = chunk
        stream = base.substream(_BRANCH_DOMINANCE, index)
        with _drawn_chunk((scenario,), schemes, stream, size) as (bob, eve, scratch, _):
            rivals = np.array([_capacities(scenario, s, bob, eve, stream, scratch)
                               for s in others])
            best = _capacities(scenario, TasScheme.OTAS, bob, eve, stream, scratch)
        return int(np.count_nonzero(rivals > best))

    count = sum(_run_queue(violations, _chunk_layout(realizations, m), threads).values())
    return CheckResult(
        "otas-dominance", count == 0,
        f"{realizations} realizations x {len(others)} rival schemes, "
        f"{count} violations")


def check_factor_m_identity() -> CheckResult:
    """E-TAS closed form equals the single-antenna form with the
    eavesdropper SNR divided by M, over -30..40 dB and M up to 64."""
    pairs = [(asc(_scenario(gb_db, ge_db, m), TasScheme.ETAS, Method.CLOSED).value,
              asc(Scenario(db_to_linear(gb_db), db_to_linear(ge_db) / m, 1),
                  TasScheme.ETAS).value)
             for gb_db, ge_db, m in product(QUAD_GRID_DB, QUAD_GRID_DB, QUAD_ANTENNAS)]
    return _max_diff("factor-m-identity", pairs, EXACT_IDENTITY_TOL, "points, ")


def check_single_antenna() -> CheckResult:
    """With one antenna every criterion selects the same antenna: the two
    closed forms must coincide over -30..40 dB. (O-TAS at M = 1 meets the
    B-TAS closed form in mc-vs-closed.)"""
    scenarios = [_scenario(gb_db, ge_db, 1)
                 for gb_db, ge_db in product(QUAD_GRID_DB, QUAD_GRID_DB)]
    pairs = [(asc(scenario, TasScheme.BTAS, Method.CLOSED).value,
              asc(scenario, TasScheme.ETAS, Method.CLOSED).value)
             for scenario in scenarios]
    return _max_diff("single-antenna-degeneracy", pairs, EXACT_IDENTITY_TOL,
                     "points at M=1, closed forms ")


def run_verification(trials: int = 1_000_000, seed: int = 42,
                     threads: int = 1) -> list[CheckResult]:
    """Run every cross-check; an exception inside a check counts as failure."""
    checks = (
        ("closed-vs-quadrature", check_closed_vs_quadrature),
        ("mc-vs-closed", lambda: check_mc_vs_closed(trials, seed, threads)),
        ("otas-dominance", lambda: check_otas_dominance(trials, seed, threads)),
        ("factor-m-identity", check_factor_m_identity),
        ("single-antenna-degeneracy", check_single_antenna),
    )
    results = []
    for name, run in checks:
        try:
            results.append(run())
        except Exception as exc:  # a broken route must fail its check, not the suite
            results.append(CheckResult(name, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
