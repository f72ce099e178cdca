"""Error types shared across the package, and the one rule every config number passes."""

import math
import numbers


class KacLabError(Exception):
    """Base class for package errors."""


class ConfigError(KacLabError, ValueError):
    """Invalid configuration value; message names the offending fields."""


def check_number(name, value, low, above=False, integer=False):
    """value, if it is a finite number above low (above=True) or at least low,
    and an integer where integer=True; else a ConfigError naming name.  A
    bool, a string and NaN always fail."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a finite number")
    if not (isinstance(value, kind) and not isinstance(value, bool)
            and (value > low if above else value >= low) and value < math.inf):
        raise ConfigError(f"{name}={value!r} must be {what} {'>' if above else '>='} {low}")
    return value


class SolverError(KacLabError, RuntimeError):
    """A solver failed: no convergence, or a factorization that failed.

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
