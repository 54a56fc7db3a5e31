"""Parameter sweeps, B-TAS/E-TAS crossover search, and scheme switching.

A sweep walks one dB-valued axis (legitimate SNR, eavesdropper SNR, or their
ratio) over a linear-in-dB grid and emits one row per grid point, antenna
count, scheme and method. A scheme uses its closed form where
`secrecy.ROUTES` has one; the others (otas, random) are estimated by Monte
Carlo on substreams derived from (grid index, antenna index, scheme), so
repeated runs of the same spec are byte-identical regardless of worker count.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import RngStream, Scenario, require_int
from .errors import DegenerateNormalizationError, NoCrossoverError
from .secrecy import (ROUTES, AscEstimate, Method, asc, asc_btas_closed,
                      asc_etas_closed, mc_asc)
from .selection import TasScheme


class SweptParameter(str, Enum):
    GAMMA_B_DB = "gamma-b"
    GAMMA_E_DB = "gamma-e"
    RATIO_DB = "ratio"


# Fixed stream branch per scheme so the same substream schedule is used no
# matter which schemes a spec asks for (the normalization denominator must
# see the exact O-TAS stream an O-TAS row would use).
_SCHEME_BRANCH = {
    TasScheme.OTAS: 0,
    TasScheme.BTAS: 1,
    TasScheme.ETAS: 2,
    TasScheme.RANDOM: 3,
}

CROSSOVER_LOG_RATIO_TOL = 1e-12
CROSSOVER_WIDTH_TOL_DB = 1e-10
DEFAULT_BRACKET_DB = (-30.0, 30.0)


def db_to_linear(x_db: float) -> float:
    """Power ratio of a dB value: 10^(x/10)."""
    if not math.isfinite(x_db):
        raise ValueError(f"dB value must be finite, got {x_db!r}")
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(
            f"dB value {x_db!r} is out of range: 10^({x_db!r}/10) overflows a float"
        ) from None


@dataclass(frozen=True)
class SweepSpec:
    """Definition of one sweep: axis, dB grid, antenna counts, schemes,
    Monte Carlo budget and seed.

    `fixed_gamma_db` is the non-swept reference SNR; when sweeping the ratio
    it is the legitimate reference SNR and the eavesdropper reference is
    fixed + ratio. `mc_overlay` additionally emits Monte Carlo rows for the
    closed-form schemes as validation overlays. `normalize_to_otas` divides
    each row's `asc` and `std_error` by the O-TAS Monte Carlo value at its
    point: `std_error` is then the row's own error over that value, the
    O-TAS row's is the O-TAS estimate's relative standard error q, and a
    row's full error is hypot(std_error, asc * q).
    """

    swept: SweptParameter
    start_db: float
    stop_db: float
    points: int
    fixed_gamma_db: float
    antennas: tuple[int, ...]
    schemes: tuple[TasScheme, ...]
    mc_trials: int = 0
    seed: int = 42
    normalize_to_otas: bool = False
    mc_overlay: bool = False

    def __post_init__(self):
        object.__setattr__(self, "swept", SweptParameter(self.swept))
        object.__setattr__(self, "antennas",
                           tuple(require_int(m, "antenna count", 1) for m in self.antennas))
        object.__setattr__(self, "mc_trials", require_int(self.mc_trials, "mc_trials", 0))
        object.__setattr__(self, "points", require_int(self.points, "points", 2))
        object.__setattr__(self, "schemes",
                           tuple(TasScheme(s) for s in self.schemes))
        if not (math.isfinite(self.start_db) and math.isfinite(self.stop_db)
                and self.start_db < self.stop_db):
            raise ValueError(
                f"need start_db < stop_db, got [{self.start_db!r}, {self.stop_db!r}]")
        if not math.isfinite(self.fixed_gamma_db):
            raise ValueError(f"fixed_gamma_db must be finite, got {self.fixed_gamma_db!r}")
        if not self.antennas:
            raise ValueError("at least one antenna count is required")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        if self.needs_mc and self.mc_trials < 2:
            raise ValueError(
                "mc_trials >= 2 required: this sweep requests a Monte Carlo "
                "path (otas/random scheme, overlay, or normalization)")
        # The grid is linear in dB, so its two ends bound every SNR it reaches,
        # and Scenario's rule holds at every point if it holds there at max M.
        for value_db in (self.start_db, self.stop_db):
            dbs = _grid_point_dbs(self, value_db)
            for x_db in dbs:
                if db_to_linear(x_db) == 0.0:
                    raise ValueError(
                        f"dB value {x_db!r} is out of range: "
                        f"10^({x_db!r}/10) underflows to 0")
            Scenario(*map(db_to_linear, dbs), max(self.antennas))

    @property
    def needs_mc(self) -> bool:
        """A scheme without a closed form, or overlay, or normalization."""
        return (any(Method.CLOSED not in ROUTES[s] for s in self.schemes)
                or self.normalize_to_otas or self.mc_overlay)


@dataclass(frozen=True)
class SweepRow:
    """One plotted point of a sweep (one CSV record)."""

    swept_value_db: float
    gamma_b0_db: float
    gamma_e0_db: float
    antennas: int
    scheme: str
    method: str
    asc: float
    std_error: float | None
    trials: int | None


@dataclass(frozen=True)
class CrossoverResult:
    """Ratio (dB) where the closed-form B-TAS and E-TAS curves meet, and the
    `residual` ln(B-TAS / E-TAS) there."""

    gamma_b0_db: float
    antennas: int
    crossover_ratio_db: float
    residual: float


def _grid_point_dbs(spec: SweepSpec, value_db: float) -> tuple[float, float]:
    if spec.swept is SweptParameter.GAMMA_B_DB:
        return value_db, spec.fixed_gamma_db
    if spec.swept is SweptParameter.GAMMA_E_DB:
        return spec.fixed_gamma_db, value_db
    return spec.fixed_gamma_db, spec.fixed_gamma_db + value_db


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate the sweep; rows come out ordered by
    (swept value, antennas, scheme, method). A scheme's closed form where
    one exists, else Monte Carlo; normalized `std_error` as in SweepSpec."""
    antennas = tuple(sorted(set(spec.antennas)))
    schemes = tuple(sorted(set(spec.schemes), key=lambda s: s.value))
    values = np.linspace(spec.start_db, spec.stop_db, spec.points)
    base = RngStream(spec.seed)
    rows: list[SweepRow] = []

    for pi, value_db in enumerate(float(v) for v in values):
        gb_db, ge_db = _grid_point_dbs(spec, value_db)
        for mi, m in enumerate(antennas):
            scenario = Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)

            def mc(scheme: TasScheme) -> AscEstimate:
                return mc_asc(scenario, scheme, spec.mc_trials,
                              base.substream(pi, mi, _SCHEME_BRANCH[scheme]),
                              threads=threads)

            otas_est = mc(TasScheme.OTAS) \
                if spec.normalize_to_otas or TasScheme.OTAS in schemes else None
            denom = otas_est.value if spec.normalize_to_otas else 1.0
            if denom <= 0.0:
                raise DegenerateNormalizationError(
                    f"O-TAS estimate is zero at swept={value_db} dB, M={m}; "
                    "cannot normalize")

            for scheme in schemes:
                if scheme is TasScheme.OTAS:
                    estimates = [otas_est]
                elif Method.CLOSED in ROUTES[scheme]:
                    closed = asc(scenario, scheme, Method.CLOSED)
                    estimates = [closed, mc(scheme)] if spec.mc_overlay else [closed]
                else:
                    estimates = [mc(scheme)]
                for est in estimates:  # x / 1.0 == x, so plain rows are unchanged
                    std_error = None if est.std_error is None else est.std_error / denom
                    rows.append(SweepRow(
                        swept_value_db=value_db, gamma_b0_db=gb_db,
                        gamma_e0_db=ge_db, antennas=m, scheme=scheme.value,
                        method=est.method.value, asc=est.value / denom,
                        std_error=std_error, trials=est.trials))
    return rows


def find_crossover(gamma_b0_db: float, antennas: int,
                   bracket_db: tuple[float, float] = DEFAULT_BRACKET_DB) -> CrossoverResult:
    """Find the eavesdropper/legitimate SNR ratio (dB) at which the two
    closed-form sub-optimal curves cross, by Illinois false position on
    g = ln(btas / etas), whose tolerance is relative at any SNR.

    Requires a sign change of g over the bracket. M = 1 is rejected, as the
    schemes then coincide everywhere, and so is a closed form that is 0.
    """
    antennas = require_int(antennas, "antennas", 2)
    lo, hi = float(bracket_db[0]), float(bracket_db[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bracket {bracket_db!r}")
    gamma_b0 = db_to_linear(gamma_b0_db)

    def gap(ratio_db: float) -> float:
        scenario = Scenario(gamma_b0, db_to_linear(gamma_b0_db + ratio_db), antennas)
        btas = asc_btas_closed(scenario).value
        etas = asc_etas_closed(scenario).value
        if btas == 0.0 or etas == 0.0:
            raise ValueError(
                f"closed-form ASC is 0 at gamma_b0={gamma_b0_db} dB, ratio={ratio_db} "
                f"dB, M={antennas} (btas {btas!r}, etas {etas!r}); no log ratio")
        return math.log(btas / etas)

    g_lo = gap(lo)
    g_hi = gap(hi)
    for edge, g_edge in ((lo, g_lo), (hi, g_hi)):
        if g_edge == 0.0:
            return CrossoverResult(gamma_b0_db, antennas, edge, g_edge)
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise NoCrossoverError(
            f"ln(btas / etas) does not change sign on [{lo}, {hi}] dB "
            f"(endpoint values {g_lo:.3e}, {g_hi:.3e})")

    # Illinois false position: step to where the chord through the bracket
    # ends crosses zero. An end that survives two steps in a row has its gap
    # halved, so that end cannot stall the bracket. A step that rounds onto
    # or outside an end falls back to the midpoint.
    root, g_root = lo, g_lo
    kept = None  # which end the last step kept
    for _ in range(200):
        root = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < root < hi:
            root = 0.5 * (lo + hi)
        g_root = gap(root)
        if abs(g_root) <= CROSSOVER_LOG_RATIO_TOL or (hi - lo) <= CROSSOVER_WIDTH_TOL_DB:
            break
        if (g_root > 0.0) == (g_lo > 0.0):
            lo, g_lo = root, g_root
            if kept == "hi":
                g_hi *= 0.5
            kept = "hi"
        else:
            hi, g_hi = root, g_root
            if kept == "lo":
                g_lo *= 0.5
            kept = "lo"
    return CrossoverResult(gamma_b0_db, antennas, root, g_root)


def adaptive_scheme(scenario: Scenario) -> tuple[TasScheme, AscEstimate]:
    """Pick whichever sub-optimal criterion has the larger closed-form ASC
    at this operating point (ties go to the legitimate-based scheme)."""
    btas = asc_btas_closed(scenario)
    etas = asc_etas_closed(scenario)
    if btas.value >= etas.value:
        return TasScheme.BTAS, btas
    return TasScheme.ETAS, etas
