"""Parameter sweeps, B-TAS/E-TAS crossover search, and scheme switching.

A sweep walks one dB-valued axis (legitimate SNR, eavesdropper SNR, or their
ratio) over a linear-in-dB grid and emits one row per grid point, antenna
count, scheme and method. A scheme uses its closed form where
`secrecy.ROUTES` has one; the others (otas, random) are estimated by Monte
Carlo. One `secrecy._mc_asc_curves` call queues the chunks of every antenna
count; the rows of one count come from its curve, on the substream of its
index: common random numbers, each chunk drawn once for every scheme and
grid point. A row does not depend on the rest of the grid, the other schemes
or the worker count, and repeated runs of a spec are byte-identical. Rows
of one antenna count are correlated, positively wherever measured.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import secrecy
from .channel import RngStream, Scenario, require_int
from .errors import DegenerateNormalizationError, NoCrossoverError
# mc_asc is not called here, but stays a name of this module: the benchmark
# (bench/worker.py, bench/spans.py) wraps experiments.mc_asc.
from .secrecy import ROUTES, AscEstimate, Method, _mc_asc_curves, asc, mc_asc
from .selection import TasScheme


class SweptParameter(str, Enum):
    GAMMA_B_DB = "gamma-b"
    GAMMA_E_DB = "gamma-e"
    RATIO_DB = "ratio"


CROSSOVER_LOG_RATIO_TOL = 1e-12
CROSSOVER_WIDTH_TOL_DB = 1e-10
DEFAULT_BRACKET_DB = (-30.0, 30.0)


def db_to_linear(x_db: float) -> float:
    """Power ratio of a dB value: 10^(x/10). A value that is not finite, or
    whose ratio overflows a float or underflows to 0, is out of range."""
    if not math.isfinite(x_db):
        raise ValueError(f"dB value must be finite, got {x_db!r}")
    try:
        linear = 10.0 ** (x_db / 10.0)
    except OverflowError:
        fault = "overflows a float"
    else:
        if linear > 0.0:
            return linear
        fault = "underflows to 0"
    raise ValueError(f"dB value {x_db!r} is out of range: 10^({x_db!r}/10) {fault}")


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
    O-TAS row's is the O-TAS estimate's relative standard error q, and
    hypot(std_error, asc * q) overstates a Monte Carlo row's full error, as
    its realizations are the O-TAS row's (README, "CSV output").

    ValueError rejects a grid without start_db < stop_db, or one that reaches
    a dB value outside `db_to_linear`'s range or a point `Scenario` rejects.
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
        if not self.start_db < self.stop_db:  # NaN fails too
            raise ValueError(
                f"need start_db < stop_db, got [{self.start_db!r}, {self.stop_db!r}]")
        if not self.antennas:
            raise ValueError("at least one antenna count is required")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        if self.mc_schemes and self.mc_trials < 2:
            raise ValueError(
                "mc_trials >= 2 required: this sweep requests a Monte Carlo "
                "path (otas/random scheme, overlay, or normalization)")
        # The grid is linear in dB, so its two ends bound every SNR it reaches,
        # and db_to_linear's range and Scenario's rule hold at every point if
        # they hold there at max M. An infinite end or fixed value fails here.
        for value_db in (self.start_db, self.stop_db):
            Scenario(*map(db_to_linear, _grid_point_dbs(self, value_db)),
                     max(self.antennas))

    @property
    def mc_schemes(self) -> tuple[TasScheme, ...]:
        """The schemes with Monte Carlo rows, by name: those without a closed
        form, or every scheme with overlay; then O-TAS, if normalization
        needs it. The sweep needs Monte Carlo if this is not empty."""
        schemes = sorted(set(self.schemes), key=lambda s: s.value)
        mc = [s for s in schemes if self.mc_overlay or Method.CLOSED not in ROUTES[s]]
        if self.normalize_to_otas and TasScheme.OTAS not in mc:
            mc.append(TasScheme.OTAS)
        return tuple(mc)


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
    one exists, else Monte Carlo; normalized `std_error` as in SweepSpec.
    The Monte Carlo rows of one antenna count, of every scheme and grid
    point, share their fading realizations (secrecy._mc_asc_curves)."""
    antennas = tuple(sorted(set(spec.antennas)))
    schemes = tuple(sorted(set(spec.schemes), key=lambda s: s.value))
    values = [float(v) for v in np.linspace(spec.start_db, spec.stop_db, spec.points)]
    grid = [_grid_point_dbs(spec, value_db) for value_db in values]
    base = RngStream(spec.seed)

    scenarios = {m: [Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)
                     for gb_db, ge_db in grid] for m in antennas}

    mc_schemes = spec.mc_schemes
    curves = dict(zip(antennas, _mc_asc_curves(
        [(scenarios[m], mc_schemes, base.substream(mi, 0)) for mi, m in enumerate(antennas)],
        spec.mc_trials, threads) if mc_schemes else ()))

    rows: list[SweepRow] = []
    for pi, (value_db, (gb_db, ge_db)) in enumerate(zip(values, grid)):
        for m in antennas:
            denom = (curves[m][TasScheme.OTAS][pi].value
                     if spec.normalize_to_otas else 1.0)
            if denom <= 0.0:
                raise DegenerateNormalizationError(
                    f"O-TAS estimate is zero at swept={value_db} dB, M={m}; "
                    "cannot normalize")
            for scheme in schemes:
                estimates = [curves[m][scheme][pi]] if scheme in mc_schemes else []
                if Method.CLOSED in ROUTES[scheme]:
                    estimates.insert(0, asc(scenarios[m][pi], scheme, Method.CLOSED))
                for est in estimates:  # x / 1.0 == x, so plain rows are unchanged
                    std_error = None if est.std_error is None else est.std_error / denom
                    rows.append(SweepRow(
                        swept_value_db=value_db, gamma_b0_db=gb_db,
                        gamma_e0_db=ge_db, antennas=m, scheme=scheme.value,
                        method=est.method.value, asc=est.value / denom,
                        std_error=std_error, trials=est.trials))
    return rows


def find_crossover(gamma_b0_db: float, antennas: int,
                   bracket_db: tuple[float, float] | None = None) -> CrossoverResult:
    """Find the eavesdropper/legitimate SNR ratio (dB) at which the two
    closed-form sub-optimal curves cross, by Illinois false position on
    g = ln(btas / etas), whose tolerance is relative at any SNR.

    Requires a sign change of g over the bracket. Where DEFAULT_BRACKET_DB,
    used without `bracket_db`, has none, its width is added below it until g
    changes sign or Scenario rejects gamma_e0: at a high gamma_b0 the root
    sits near a fixed gamma_e0, below that bracket. M = 1 is rejected, as
    the schemes then coincide everywhere, and so is a closed form that is 0.
    """
    antennas = require_int(antennas, "antennas", 2)
    lo, hi = map(float, DEFAULT_BRACKET_DB if bracket_db is None else bracket_db)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bracket {bracket_db!r}")
    gamma_b0 = db_to_linear(gamma_b0_db)

    def gap(ratio_db: float) -> float:
        scenario = Scenario(gamma_b0, db_to_linear(gamma_b0_db + ratio_db), antennas)
        btas = secrecy.asc_btas_closed(scenario).value
        etas = secrecy.asc_etas_closed(scenario).value
        if btas == 0.0 or etas == 0.0:
            raise ValueError(
                f"closed-form ASC is 0 at gamma_b0={gamma_b0_db} dB, ratio={ratio_db} "
                f"dB, M={antennas} (btas {btas!r}, etas {etas!r}); no log ratio")
        return math.log(btas / etas)

    g_lo = gap(lo)
    g_hi = gap(hi)
    while bracket_db is None and (g_lo > 0.0) == (g_hi > 0.0):
        try:
            lo, g_lo = 2.0 * lo - hi, gap(2.0 * lo - hi)
        except ValueError:  # past the range of Scenario, or an ASC of 0
            break
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
    btas = asc(scenario, TasScheme.BTAS, Method.CLOSED)
    etas = asc(scenario, TasScheme.ETAS, Method.CLOSED)
    if btas.value >= etas.value:
        return TasScheme.BTAS, btas
    return TasScheme.ETAS, etas
