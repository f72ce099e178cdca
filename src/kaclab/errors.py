"""Error types shared across the package."""


class KacLabError(Exception):
    """Base class for package errors."""


class ConfigError(KacLabError, ValueError):
    """Invalid configuration value; message names the offending fields."""


class SolverError(KacLabError, RuntimeError):
    """Iterative solver failed to converge.

    Carries the last residuals / energy trace so failed runs stay auditable.
    """

    def __init__(self, message, residuals=None, trace=None):
        super().__init__(message)
        self.residuals = residuals
        self.trace = trace


class BasisSizeError(KacLabError, ValueError):
    """Many-body basis would exceed the configured cap."""

    def __init__(self, dim, cap):
        super().__init__(
            f"occupation basis dimension {dim} exceeds cap {cap}"
        )
        self.dim = dim
        self.cap = cap


class GridMismatchError(KacLabError, ValueError):
    """Two grid quantities do not live on the same grid."""
