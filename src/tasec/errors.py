"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """Quadrature could not meet its tolerance: it hit its node cap, its
    integrand was not finite, or the integrand's tail passes the largest double."""


class UnsupportedSchemeError(ValueError):
    """The requested evaluation method does not exist for this selection scheme."""


class NoCrossoverError(RuntimeError):
    """The two closed-form curves do not change order inside the given bracket."""


class DegenerateNormalizationError(RuntimeError):
    """Normalization requested against a reference estimate that is zero."""
