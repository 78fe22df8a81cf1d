"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation and usage problems
exit with 2, numerical failures (degenerate spectra, singular systems,
overflow) exit with 1.
"""


class GhiveError(Exception):
    """Base class for errors raised by this package."""


class DataValidationError(GhiveError):
    """Bad input data or inconsistent dimensions (CLI exit code 2)."""


class NumericalError(GhiveError):
    """A computation could not be completed reliably (CLI exit code 1)."""
