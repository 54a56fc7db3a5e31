"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature hit its interval cap before meeting its tolerance."""


class UnsupportedSchemeError(ValueError):
    """The requested evaluation method does not exist for this selection scheme."""


class NoCrossoverError(RuntimeError):
    """The two closed-form curves do not change order inside the given bracket."""


class DegenerateNormalizationError(RuntimeError):
    """Normalization requested against a reference estimate that is zero."""
