"""Average secrecy capacity of transmit-antenna-selection schemes over
Rayleigh fading: Monte Carlo, quadrature, and closed-form evaluation plus
sweep/crossover tooling."""

from .channel import RngStream, Scenario, draw_gain_blocks
from .errors import (ConvergenceError, DegenerateNormalizationError,
                     NoCrossoverError, UnsupportedSchemeError)
from .experiments import (CrossoverResult, SweepRow, SweepSpec, SweptParameter,
                          adaptive_scheme, db_to_linear, find_crossover,
                          run_sweep)
from .expint import delta_e, exp_scaled_e1
from .secrecy import (AscEstimate, Method, asc, asc_btas_closed, asc_etas_closed,
                      asc_quadrature, mc_asc, mc_asc_curve)
from .selection import TasScheme, link_laws, select_indices
from .verification import CheckResult, run_verification

__version__ = "0.20.0"

__all__ = [
    "AscEstimate", "CheckResult", "ConvergenceError", "CrossoverResult",
    "DegenerateNormalizationError", "Method", "NoCrossoverError", "RngStream",
    "Scenario", "SweepRow", "SweepSpec", "SweptParameter", "TasScheme",
    "UnsupportedSchemeError", "adaptive_scheme", "asc", "asc_btas_closed",
    "asc_etas_closed", "asc_quadrature", "db_to_linear",
    "delta_e", "draw_gain_blocks", "exp_scaled_e1", "find_crossover",
    "link_laws", "mc_asc", "mc_asc_curve", "run_sweep", "run_verification",
    "select_indices",
]
