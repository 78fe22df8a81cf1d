"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation and usage problems
exit with 2, numerical failures (degenerate spectra, singular systems,
overflow) exit with 1.
"""

import numbers


class GhiveError(Exception):
    """Base class for errors raised by this package."""


class DataValidationError(GhiveError):
    """Bad input data or inconsistent dimensions (CLI exit code 2)."""


class NumericalError(GhiveError):
    """A computation could not be completed reliably (CLI exit code 1)."""


def require_integer(name: str, value) -> None:
    """Refuse ``value`` for the argument ``name`` unless it is an integer (a
    bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataValidationError(f"{name} must be an integer, got {value!r}")
